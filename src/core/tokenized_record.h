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
  /// Contextual embedding of each flat token (empty until encoded).
  std::vector<la::Vec> embeddings;
  /// Unit-normalized copies of `embeddings`, packed row-major
  /// (size() x embedding_dim) for the one-shot similarity-matrix kernel
  /// of the decision-unit generator. Filled by PackEmbeddings /
  /// EncodeEntity; all-zero embeddings stay all-zero rows.
  la::Vec packed_embeddings;
  /// Row width of `packed_embeddings` (0 until packed).
  size_t embedding_dim = 0;

  size_t size() const { return tokens.size(); }

  /// Flat indices of the tokens belonging to attribute `attr`.
  std::vector<size_t> TokensOfAttribute(size_t attr) const;

  /// True when packed_embeddings is in sync with embeddings' shape.
  bool HasPackedEmbeddings() const {
    return !embeddings.empty() && embedding_dim != 0 &&
           packed_embeddings.size() == embeddings.size() * embedding_dim;
  }

  /// (Re)builds packed_embeddings from `embeddings`
  /// (one unit-normalization per token at encode time, so every cosine
  /// downstream collapses to a dot product).
  void PackEmbeddings();
};

/// A tokenized record: both descriptions plus the label.
struct TokenizedRecord {
  TokenizedEntity left;
  TokenizedEntity right;
  int label = 0;
};

/// Packs `embeddings` into unit-normalized row-major float rows and
/// returns the row width. All-zero vectors stay all-zero.
size_t PackUnitRows(const std::vector<la::Vec>& embeddings, la::Vec* packed);

/// Tokenizes one entity over `schema` (embeddings left empty).
TokenizedEntity TokenizeEntity(const data::Entity& entity,
                               const data::Schema& schema,
                               const text::Tokenizer& tokenizer);

/// Tokenizes a full record.
TokenizedRecord TokenizeRecord(const data::EmRecord& record,
                               const data::Schema& schema,
                               const text::Tokenizer& tokenizer);

/// Fills `entity->embeddings` with the encoder's contextual vectors.
void EncodeEntity(const embedding::SemanticEncoder& encoder,
                  TokenizedEntity* entity);

}  // namespace wym::core

#endif  // WYM_CORE_TOKENIZED_RECORD_H_
