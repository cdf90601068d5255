#ifndef WYM_EMBEDDING_SEMANTIC_ENCODER_H_
#define WYM_EMBEDDING_SEMANTIC_ENCODER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "embedding/context_mixer.h"
#include "embedding/cooc_embedder.h"
#include "embedding/hash_embedder.h"
#include "embedding/siamese_calibrator.h"
#include "la/vector_ops.h"
#include "util/serde.h"

/// \file
/// The semantic encoder facade: WYM's substitute for BERT/SBERT token
/// embeddings (paper §4.1.1). Composes the subword hashing embedder
/// (syntactic signal), the PPMI co-occurrence embedder (distributional
/// signal), attention-like context mixing (contextualization, challenge
/// R4) and optional siamese calibration (the SBERT analogue).

namespace wym::embedding {

/// Mirrors the encoder ablation of Table 4.
enum class EncoderMode {
  /// Subword hashing only — the "pre-trained BERT" row (no corpus signal).
  kPretrained,
  /// Subword + corpus co-occurrence — the "BERT fine-tuned on EM" row.
  kFineTuned,
  /// Fine-tuned + siamese calibration — the SBERT default used by WYM.
  kSiamese,
};

/// Printable name of a mode ("pretrained" / "finetuned" / "siamese").
const char* EncoderModeName(EncoderMode mode);

/// Options for SemanticEncoder.
struct SemanticEncoderOptions {
  EncoderMode mode = EncoderMode::kSiamese;
  size_t hash_dim = 40;
  size_t cooc_dim = 24;
  /// Numeracy channel: numeric tokens additionally activate a radial
  /// basis over their log-magnitude, so "1161.61" and "1300.21" are close
  /// while "717" and "71" are not — the graded numeric proximity BERT
  /// embeddings carry for prices, years and quantities. 0 disables.
  /// A token is numeric when strtod consumes all of it and the value is
  /// not NaN: "nan", "NaN" and "nan(1)" embed as words. An overflowing
  /// token ("34e605211" reads as +inf) is numeric and activates no
  /// numeric channel.
  size_t numeric_dims = 8;
  CoocEmbedderOptions cooc;
  ContextMixerOptions context;
  SiameseCalibratorOptions siamese;
  uint64_t seed = 0xE11C0DE;
};

/// Produces contextual token embeddings for entity descriptions.
///
/// The output dimension is fixed (`hash_dim + cooc_dim + numeric_dims`)
/// across modes so downstream models are mode-agnostic: kPretrained
/// simply leaves the distributional block zero.
///
/// Every token first gets its context-free base embedding. Those of the
/// cooc vocabulary's kept tokens are read from a table derived at Fit and
/// Load; any other token is computed on the fly. The table is read-only
/// once built, so concurrent EncodeTokens calls share it with no lock,
/// and its size is fixed by the model, never by the tokens encoded.
class SemanticEncoder {
 public:
  using Options = SemanticEncoderOptions;

  /// Byte cap of the derived base-embedding table. Fit keeps at most
  /// MaxTableRows(dim()) vocabulary tokens, and Load refuses a model
  /// with more, before allocating anything for them.
  static constexpr size_t kMaxTableBytes = size_t{1} << 28;
  static size_t MaxTableRows(size_t dim) {
    return kMaxTableBytes / (dim * sizeof(float));
  }

  explicit SemanticEncoder(Options options = {});

  /// Trains the corpus-dependent parts (no-op for kPretrained).
  /// Each sentence is the full token list of one entity description.
  void Fit(const std::vector<std::vector<std::string>>& sentences);

  /// Second training stage for kSiamese: pooled embeddings of labelled
  /// record pairs (compute them with PoolTokens over EncodeTokens output).
  void FitSiamese(const std::vector<std::pair<la::Vec, la::Vec>>& pairs,
                  const std::vector<int>& labels);

  /// Contextual unit-norm embeddings of one entity description's tokens,
  /// as one row-major block: row i (dim() floats) belongs to tokens[i].
  la::Vec EncodeTokens(const std::vector<std::string>& tokens) const;

  /// Context-free embedding of a single token (before mixing and
  /// calibration); exposed for tests and the micro benches.
  la::Vec EncodeTokenIsolated(const std::string& token) const;

  /// Mean-pools the rows of a token block (`dim` floats each) into one
  /// normalized description vector; empty for an empty block.
  static la::Vec PoolTokens(const la::Vec& block, size_t dim);

  /// Serialization of the fitted encoder (see util/serde.h). Note the
  /// hash embedder is purely seed-defined, so only options + fitted
  /// state of the corpus-dependent parts are stored; the base-embedding
  /// table is derived again on Load.
  void Save(serde::Serializer* s) const;
  bool Load(serde::Deserializer* d);

  size_t dim() const {
    return options_.hash_dim + options_.cooc_dim + options_.numeric_dims;
  }
  /// Rows of the base-embedding table: the cooc vocabulary size.
  size_t table_rows() const { return table_.size() / dim(); }
  EncoderMode mode() const { return options_.mode; }
  bool fitted() const { return fitted_; }

 private:
  /// Writes the context-free embedding of `token` to row[0, dim()).
  /// `in_vocabulary` says whether the cooc embedder keeps the token;
  /// when it does not, the distributional block is zero.
  void BaseEmbed(const std::string& token, bool in_vocabulary,
                 float* row) const;
  /// Writes BaseEmbed of `token` to `row`: a copy of its table row when
  /// it has one, otherwise computed in place.
  void LookupBaseEmbed(const std::string& token, float* row) const;
  /// Derives table_ from the fitted (or loaded) cooc vocabulary.
  void BuildTable();

  Options options_;
  bool fitted_ = false;
  HashEmbedder hash_;
  CoocEmbedder cooc_;
  ContextMixer mixer_;
  SiameseCalibrator calibrator_;
  /// Row k (dim() floats) is BaseEmbed of the cooc embedder's kept token k.
  la::Vec table_;
};

}  // namespace wym::embedding

#endif  // WYM_EMBEDDING_SEMANTIC_ENCODER_H_
