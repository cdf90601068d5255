#include "core/tokenized_record.h"

#include <cmath>
#include <cstring>

#include "la/kernels.h"
#include "util/logging.h"

namespace wym::core {

std::vector<size_t> TokenizedEntity::TokensOfAttribute(size_t attr) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < attribute_of.size(); ++i) {
    if (attribute_of[i] == attr) out.push_back(i);
  }
  return out;
}

TokenizedEntity TokenizeEntity(const data::Entity& entity,
                               const data::Schema& schema,
                               const text::Tokenizer& tokenizer) {
  WYM_CHECK_EQ(entity.values.size(), schema.size());
  TokenizedEntity out;
  for (size_t attr = 0; attr < entity.values.size(); ++attr) {
    for (auto& token : tokenizer.Tokenize(entity.values[attr])) {
      out.tokens.push_back(std::move(token));
      out.attribute_of.push_back(attr);
    }
  }
  return out;
}

TokenizedRecord TokenizeRecord(const data::EmRecord& record,
                               const data::Schema& schema,
                               const text::Tokenizer& tokenizer) {
  TokenizedRecord out;
  out.left = TokenizeEntity(record.left, schema, tokenizer);
  out.right = TokenizeEntity(record.right, schema, tokenizer);
  out.label = record.label;
  return out;
}

size_t PackUnitRows(const std::vector<la::Vec>& embeddings, la::Vec* packed) {
  const size_t dim = embeddings.empty() ? 0 : embeddings.front().size();
  packed->assign(embeddings.size() * dim, 0.0f);
  for (size_t i = 0; i < embeddings.size(); ++i) {
    const la::Vec& v = embeddings[i];
    WYM_CHECK_EQ(v.size(), dim) << "ragged embedding dimensions on row " << i;
    float* row = packed->data() + i * dim;
    if (dim > 0) std::memcpy(row, v.data(), dim * sizeof(float));
    const double norm = std::sqrt(la::kernels::SquaredNorm(row, dim));
    if (norm > 0.0) la::kernels::Scale(1.0 / norm, row, dim);
  }
  return dim;
}

void TokenizedEntity::PackEmbeddings() {
  embedding_dim = PackUnitRows(embeddings, &packed_embeddings);
}

void EncodeEntity(const embedding::SemanticEncoder& encoder,
                  TokenizedEntity* entity) {
  entity->embeddings = encoder.EncodeTokens(entity->tokens);
  entity->PackEmbeddings();
}

}  // namespace wym::core
