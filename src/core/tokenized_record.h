#ifndef WYM_CORE_TOKENIZED_RECORD_H_
#define WYM_CORE_TOKENIZED_RECORD_H_

#include <cstddef>
#include <string>
#include <vector>

#include "data/record.h"
#include "embedding/semantic_encoder.h"
#include "la/vector_ops.h"
#include "text/tokenizer.h"

/// \file
/// Tokenized + encoded view of an EM record: the input representation of
/// the decision-unit generator (paper §4.1.1: tokenize attribute values,
/// assign contextual embeddings).

namespace wym::core {

/// One entity description after tokenization (and optionally encoding).
struct TokenizedEntity {
  /// Flat token list (attribute values concatenated, in schema order).
  std::vector<std::string> tokens;
  /// Attribute index of each flat token.
  std::vector<size_t> attribute_of;
  /// Contextual embeddings as one row-major block: row i holds the
  /// `embedding_dim` floats of token i (empty until encoded). The
  /// encoder's rows are unit-norm or all-zero, so the cosine of two rows
  /// is their dot product.
  la::Vec embeddings;
  /// Row width of `embeddings` (0 until encoded).
  size_t embedding_dim = 0;

  size_t size() const { return tokens.size(); }

  /// Embedding row of token `i`.
  const float* Embedding(size_t i) const {
    return embeddings.data() + i * embedding_dim;
  }

  /// Flat indices of the tokens belonging to attribute `attr`.
  std::vector<size_t> TokensOfAttribute(size_t attr) const;
};

/// A tokenized record: both descriptions.
struct TokenizedRecord {
  TokenizedEntity left;
  TokenizedEntity right;
};

/// Tokenizes one entity over `schema` (embeddings left empty).
TokenizedEntity TokenizeEntity(const data::Entity& entity,
                               const data::Schema& schema,
                               const text::Tokenizer& tokenizer);

/// Tokenizes a full record.
TokenizedRecord TokenizeRecord(const data::EmRecord& record,
                               const data::Schema& schema,
                               const text::Tokenizer& tokenizer);

/// Fills `entity->embeddings` with the encoder's contextual block.
void EncodeEntity(const embedding::SemanticEncoder& encoder,
                  TokenizedEntity* entity);

}  // namespace wym::core

#endif  // WYM_CORE_TOKENIZED_RECORD_H_
