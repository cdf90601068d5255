#ifndef WYM_EMBEDDING_HASH_EMBEDDER_H_
#define WYM_EMBEDDING_HASH_EMBEDDER_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "la/vector_ops.h"

/// \file
/// Subword hashing embedder: the "pre-trained" component of the semantic
/// encoder (see DESIGN.md, substitution table). Tokens are decomposed into
/// padded character n-grams; each gram is hashed into a signed bucket of a
/// fixed-dimension vector (fastText-style hashing trick). String-similar
/// tokens share most grams and therefore have high cosine similarity,
/// giving the generator the syntactic-affinity signal BERT word-piece
/// embeddings provide in the paper.

namespace wym::embedding {

/// Deterministic, training-free token embedder.
class HashEmbedder {
 public:
  /// `dim` output dimension; `seed` perturbs the hash so independent
  /// embedders are decorrelated.
  explicit HashEmbedder(size_t dim = 40, uint64_t seed = 0x5eed);

  /// Unit-norm embedding of a token. Empty tokens map to the zero vector.
  la::Vec Embed(std::string_view token) const;

  /// The same embedding, written to out[0, dim()).
  void Embed(std::string_view token, float* out) const;

  size_t dim() const { return dim_; }

 private:
  size_t dim_;
  uint64_t seed_;
};

}  // namespace wym::embedding

#endif  // WYM_EMBEDDING_HASH_EMBEDDER_H_
