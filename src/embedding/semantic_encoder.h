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
#include "util/bounded_cache.h"
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
/// The output dimension is fixed (`hash_dim + cooc_dim`) across modes so
/// downstream models are mode-agnostic: kPretrained simply leaves the
/// distributional block zero.
class SemanticEncoder {
 public:
  using Options = SemanticEncoderOptions;

  explicit SemanticEncoder(Options options = {});

  /// Trains the corpus-dependent parts (no-op for kPretrained).
  /// Each sentence is the full token list of one entity description.
  void Fit(const std::vector<std::vector<std::string>>& sentences);

  /// Second training stage for kSiamese: pooled embeddings of labelled
  /// record pairs (compute them with PoolTokens over EncodeTokens output).
  void FitSiamese(const std::vector<std::pair<la::Vec, la::Vec>>& pairs,
                  const std::vector<int>& labels);

  /// Contextual unit-norm embeddings for one entity description's tokens.
  std::vector<la::Vec> EncodeTokens(
      const std::vector<std::string>& tokens) const;

  /// Context-free embedding of a single token (before mixing/calibration
  /// pooling); exposed for tests and the micro benches.
  la::Vec EncodeTokenIsolated(const std::string& token) const;

  /// Mean-pools token vectors into one description vector (normalized).
  static la::Vec PoolTokens(const std::vector<la::Vec>& tokens);

  /// Serialization of the fitted encoder (see util/serde.h). Note the
  /// hash embedder is purely seed-defined, so only options + fitted
  /// state of the corpus-dependent parts are stored.
  void Save(serde::Serializer* s) const;
  bool Load(serde::Deserializer* d);

  size_t dim() const {
    return options_.hash_dim + options_.cooc_dim + options_.numeric_dims;
  }
  /// Token-memo introspection (bounded-cache regression tests and the
  /// serve stats endpoint): current entry count and lifetime evictions.
  size_t token_cache_size() const { return cache_.size(); }
  uint64_t token_cache_evictions() const { return cache_.evictions(); }
  EncoderMode mode() const { return options_.mode; }
  bool fitted() const { return fitted_; }

 private:
  /// Memo of context-free token embeddings: the same token string always
  /// maps to the same BaseEmbed vector (hash-gram + cooc + numeracy are
  /// all deterministic in the token), so repeated occurrences across a
  /// corpus skip the recomputation. Backed by util::FifoCache —
  /// thread-safe (the batch inference APIs encode records concurrently)
  /// and size-capped with deterministic insertion-order eviction, so a
  /// long-lived serving process that streams an unbounded token
  /// vocabulary through the encoder holds at most kMaxEntries vectors
  /// while new tokens keep getting cached. Never copied/moved with the
  /// encoder (the entries are derivable state).
  class TokenEmbeddingCache {
   public:
    TokenEmbeddingCache() = default;
    TokenEmbeddingCache(const TokenEmbeddingCache&) {}
    TokenEmbeddingCache(TokenEmbeddingCache&&) noexcept {}
    TokenEmbeddingCache& operator=(const TokenEmbeddingCache&) {
      Clear();
      return *this;
    }
    TokenEmbeddingCache& operator=(TokenEmbeddingCache&&) noexcept {
      Clear();
      return *this;
    }

    bool Lookup(const std::string& token, la::Vec* out) const {
      return cache_.Lookup(token, out);
    }
    void Insert(const std::string& token, const la::Vec& value) {
      cache_.Insert(token, value);
    }
    void Clear() { cache_.Clear(); }
    size_t size() const { return cache_.size(); }
    uint64_t evictions() const { return cache_.evictions(); }

   private:
    static constexpr size_t kMaxEntries = 1u << 16;
    util::FifoCache<std::string, la::Vec> cache_{kMaxEntries};
  };

  la::Vec BaseEmbed(const std::string& token) const;
  /// BaseEmbed through the memo cache.
  la::Vec CachedBaseEmbed(const std::string& token) const;

  Options options_;
  bool fitted_ = false;
  HashEmbedder hash_;
  CoocEmbedder cooc_;
  ContextMixer mixer_;
  SiameseCalibrator calibrator_;
  mutable TokenEmbeddingCache cache_;
};

}  // namespace wym::embedding

#endif  // WYM_EMBEDDING_SEMANTIC_ENCODER_H_
