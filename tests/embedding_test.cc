#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "embedding/context_mixer.h"
#include "embedding/cooc_embedder.h"
#include "embedding/hash_embedder.h"
#include "embedding/semantic_encoder.h"
#include "embedding/siamese_calibrator.h"
#include "la/vector_ops.h"
#include "util/random.h"

namespace wym::embedding {
namespace {

TEST(HashEmbedderTest, UnitNormAndDeterministic) {
  const HashEmbedder embedder(40);
  const la::Vec a = embedder.Embed("camera");
  const la::Vec b = embedder.Embed("camera");
  EXPECT_EQ(a, b);
  EXPECT_NEAR(la::Norm(a), 1.0, 1e-5);
  EXPECT_TRUE(la::IsZero(embedder.Embed("")));
}

TEST(HashEmbedderTest, SimilarStringsAreClose) {
  const HashEmbedder embedder(40);
  const double near = la::Cosine(embedder.Embed("external"),
                                 embedder.Embed("externl"));
  const double far = la::Cosine(embedder.Embed("external"),
                                embedder.Embed("zebra"));
  EXPECT_GT(near, 0.35);
  EXPECT_LT(far, 0.3);
  EXPECT_GT(near, far);
}

TEST(HashEmbedderTest, IdenticalBeatsSimilar) {
  const HashEmbedder embedder(40);
  EXPECT_GT(la::Cosine(embedder.Embed("dslra200w"),
                       embedder.Embed("dslra200w")),
            la::Cosine(embedder.Embed("dslra200w"),
                       embedder.Embed("dslra300k")));
}

TEST(HashEmbedderTest, SeedChangesSpace) {
  const HashEmbedder a(40, 1);
  const HashEmbedder b(40, 2);
  EXPECT_NE(a.Embed("camera"), b.Embed("camera"));
}

TEST(CoocEmbedderTest, ContextualNeighborsAreClose) {
  // "sony" and "nikon" share contexts; "pizza" lives elsewhere.
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 60; ++i) {
    corpus.push_back({"sony", "digital", "camera", "zoom"});
    corpus.push_back({"nikon", "digital", "camera", "lens"});
    corpus.push_back({"pizza", "cheese", "oven", "dough"});
  }
  CoocEmbedder::Options options;
  options.dim = 8;
  CoocEmbedder embedder(options);
  embedder.Fit(corpus);
  const double related =
      la::Cosine(embedder.Embed("sony"), embedder.Embed("nikon"));
  const double unrelated =
      la::Cosine(embedder.Embed("sony"), embedder.Embed("pizza"));
  EXPECT_GT(related, unrelated);
}

TEST(CoocEmbedderTest, OutOfVocabularyIsZero) {
  CoocEmbedder embedder;
  embedder.Fit({{"alpha", "beta"}, {"alpha", "beta"}});
  EXPECT_TRUE(la::IsZero(embedder.Embed("missing")));
}

TEST(CoocEmbedderTest, MinCountFiltersRareTokens) {
  CoocEmbedder::Options options;
  options.min_count = 3;
  CoocEmbedder embedder(options);
  embedder.Fit({{"common", "rare"}, {"common", "x"}, {"common", "y"}});
  EXPECT_TRUE(la::IsZero(embedder.Embed("rare")));
}

TEST(ContextMixerTest, SingleTokenUnchanged) {
  const ContextMixer mixer;
  const std::vector<la::Vec> base = {{1.0f, 0.0f}};
  EXPECT_EQ(mixer.Mix(base), base);
}

TEST(ContextMixerTest, OutputIsUnitNormAndContextDependent) {
  const ContextMixer mixer;
  const HashEmbedder embedder(24);
  const std::vector<la::Vec> context_a = {embedder.Embed("camera"),
                                          embedder.Embed("digital")};
  const std::vector<la::Vec> context_b = {embedder.Embed("camera"),
                                          embedder.Embed("lens")};
  const auto mixed_a = mixer.Mix(context_a);
  const auto mixed_b = mixer.Mix(context_b);
  EXPECT_NEAR(la::Norm(mixed_a[0]), 1.0, 1e-5);
  // Same token, different context -> different contextual vector (R4).
  EXPECT_LT(la::Cosine(mixed_a[0], mixed_b[0]), 0.9999);
  EXPECT_GT(la::Cosine(mixed_a[0], mixed_b[0]), 0.5);
}

TEST(ContextMixerTest, ZeroBlendIsIdentity) {
  ContextMixer::Options options;
  options.blend = 0.0;
  const ContextMixer mixer(options);
  const HashEmbedder embedder(16);
  const std::vector<la::Vec> base = {embedder.Embed("a"),
                                     embedder.Embed("b")};
  EXPECT_EQ(mixer.Mix(base), base);
}

TEST(SiameseCalibratorTest, IdentityBeforeFit) {
  const SiameseCalibrator calibrator;
  const la::Vec v = {0.5f, 0.5f};
  EXPECT_EQ(calibrator.Apply(v), v);
}

TEST(SiameseCalibratorTest, ReducesTrainingObjective) {
  // Matches should be pulled toward cosine 1, non-matches toward the
  // negative target (0.2): the calibrator must reduce its own objective
  // sum((cos - target)^2) on the training pairs.
  Rng rng(3);
  std::vector<std::pair<la::Vec, la::Vec>> pairs;
  std::vector<int> labels;
  for (int i = 0; i < 200; ++i) {
    const bool match = i % 2 == 0;
    // Dim 0: identity evidence; dim 1: always-shared brand evidence.
    la::Vec a = {static_cast<float>(rng.Normal(1.0, 0.1)),
                 static_cast<float>(rng.Normal(1.0, 0.1))};
    la::Vec b = {static_cast<float>(rng.Normal(match ? 1.0 : -0.3, 0.1)),
                 static_cast<float>(rng.Normal(1.0, 0.1))};
    la::Normalize(&a);
    la::Normalize(&b);
    pairs.emplace_back(a, b);
    labels.push_back(match ? 1 : 0);
  }
  SiameseCalibratorOptions options;
  SiameseCalibrator calibrator(options);
  calibrator.Fit(pairs, labels);
  ASSERT_TRUE(calibrator.fitted());

  auto objective = [&](bool calibrated) {
    double loss = 0.0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      const double target =
          labels[i] == 1 ? 1.0 : options.negative_target;
      const double cos =
          calibrated ? la::Cosine(calibrator.Apply(pairs[i].first),
                                  calibrator.Apply(pairs[i].second))
                     : la::Cosine(pairs[i].first, pairs[i].second);
      loss += (cos - target) * (cos - target);
    }
    return loss;
  };
  EXPECT_LT(objective(true), objective(false));
}

TEST(SemanticEncoderTest, DimsConstantAcrossModes) {
  for (EncoderMode mode : {EncoderMode::kPretrained, EncoderMode::kFineTuned,
                           EncoderMode::kSiamese}) {
    SemanticEncoder::Options options;
    options.mode = mode;
    SemanticEncoder encoder(options);
    encoder.Fit({{"a", "b"}, {"a", "c"}});
    EXPECT_EQ(encoder.dim(),
              options.hash_dim + options.cooc_dim + options.numeric_dims);
    const auto vectors = encoder.EncodeTokens({"a", "b"});
    ASSERT_EQ(vectors.size(), 2u);
    EXPECT_EQ(vectors[0].size(), encoder.dim());
  }
}

TEST(SemanticEncoderTest, NumeracyChannelGradedSimilarity) {
  SemanticEncoder::Options options;
  options.mode = EncoderMode::kPretrained;
  SemanticEncoder encoder(options);
  encoder.Fit({});
  const double close = la::Cosine(encoder.EncodeTokenIsolated("1161.61"),
                                  encoder.EncodeTokenIsolated("1300.21"));
  const double far = la::Cosine(encoder.EncodeTokenIsolated("717"),
                                encoder.EncodeTokenIsolated("71"));
  EXPECT_GT(close, 0.6);
  EXPECT_GT(close, far);
}

TEST(SemanticEncoderTest, ExactNumberBeatsCloseNumber) {
  SemanticEncoder::Options options;
  options.mode = EncoderMode::kPretrained;
  SemanticEncoder encoder(options);
  encoder.Fit({});
  const la::Vec a = encoder.EncodeTokenIsolated("42166");
  EXPECT_GT(la::Cosine(a, encoder.EncodeTokenIsolated("42166")),
            la::Cosine(a, encoder.EncodeTokenIsolated("42199")));
}

/// True when every component of every vector is finite.
bool AllFinite(const std::vector<la::Vec>& vectors) {
  for (const la::Vec& v : vectors) {
    for (const float x : v) {
      if (!std::isfinite(x)) return false;
    }
  }
  return true;
}

TEST(SemanticEncoderTest, NanTokensEmbedAsWords) {
  // strtod reads these as NaN; as numbers they would poison their own
  // vector and, through context mixing, the whole description.
  SemanticEncoder::Options options;
  SemanticEncoder encoder(options);
  encoder.Fit({{"sony", "camera"}, {"sony", "lens"}});
  const size_t numeric_base = options.hash_dim + options.cooc_dim;
  for (const std::string token : {"nan", "NaN", "nan(1)", "-nan"}) {
    SCOPED_TRACE(token);
    const la::Vec v = encoder.EncodeTokenIsolated(token);
    ASSERT_TRUE(AllFinite({v}));
    EXPECT_NEAR(la::Norm(v), 1.0, 1e-5);
    for (size_t k = 0; k < options.numeric_dims; ++k) {
      EXPECT_EQ(v[numeric_base + k], 0.0f) << "numeric channel " << k;
    }
    EXPECT_TRUE(AllFinite(encoder.EncodeTokens({"sony", token, "camera"})));
  }
  // An overflowing code reads as +inf: still numeric, still finite.
  EXPECT_TRUE(AllFinite({encoder.EncodeTokenIsolated("34e605211")}));
  EXPECT_TRUE(AllFinite(encoder.EncodeTokens({"sony", "34e605211"})));
}

TEST(SemanticEncoderTest, PoolTokensIsNormalizedMean) {
  const la::Vec pooled =
      SemanticEncoder::PoolTokens({{1.0f, 0.0f}, {0.0f, 1.0f}});
  EXPECT_NEAR(la::Norm(pooled), 1.0, 1e-5);
  EXPECT_NEAR(pooled[0], pooled[1], 1e-5);
  EXPECT_TRUE(SemanticEncoder::PoolTokens({}).empty());
}

TEST(SemanticEncoderTest, DeterministicAcrossInstances) {
  SemanticEncoder::Options options;
  SemanticEncoder a(options), b(options);
  const std::vector<std::vector<std::string>> corpus = {
      {"digital", "camera"}, {"digital", "lens"}};
  a.Fit(corpus);
  b.Fit(corpus);
  EXPECT_EQ(a.EncodeTokens({"digital", "camera"}),
            b.EncodeTokens({"digital", "camera"}));
}

TEST(SemanticEncoderTest, TokenCacheIsBoundedWithDeterministicEviction) {
  // Long-lived-process regression: pushing far more distinct tokens
  // than the memo capacity through the encoder must keep the cache at
  // its cap (evicting, not refusing new entries) and must not change
  // any encoding — cached vectors are derivable state.
  SemanticEncoder::Options options;
  SemanticEncoder encoder(options);
  encoder.Fit({{"digital", "camera"}});

  const auto first_before = encoder.EncodeTokens({"tok0"});
  const size_t kDistinct = (1u << 16) + 512;
  std::vector<std::string> batch;
  batch.reserve(64);
  for (size_t i = 0; i < kDistinct; i += 64) {
    batch.clear();
    for (size_t j = i; j < i + 64 && j < kDistinct; ++j) {
      batch.push_back("tok" + std::to_string(j));
    }
    (void)encoder.EncodeTokens(batch);
  }
  EXPECT_LE(encoder.token_cache_size(), size_t{1} << 16);
  EXPECT_GT(encoder.token_cache_evictions(), 0u);
  // "tok0" was evicted long ago; recomputing it after eviction gives
  // the identical vector.
  EXPECT_EQ(encoder.EncodeTokens({"tok0"}), first_before);

  // The eviction order is FIFO, so two encoders fed the same sequence
  // end with identical cache occupancy.
  SemanticEncoder other(options);
  other.Fit({{"digital", "camera"}});
  (void)other.EncodeTokens({"tok0"});
  for (size_t i = 0; i < kDistinct; i += 64) {
    batch.clear();
    for (size_t j = i; j < i + 64 && j < kDistinct; ++j) {
      batch.push_back("tok" + std::to_string(j));
    }
    (void)other.EncodeTokens(batch);
  }
  (void)other.EncodeTokens({"tok0"});
  EXPECT_EQ(other.token_cache_size(), encoder.token_cache_size());
  EXPECT_EQ(other.token_cache_evictions(), encoder.token_cache_evictions());
}

}  // namespace
}  // namespace wym::embedding
