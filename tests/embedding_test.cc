#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/benchmark_gen.h"
#include "embedding/context_mixer.h"
#include "embedding/cooc_embedder.h"
#include "embedding/hash_embedder.h"
#include "embedding/semantic_encoder.h"
#include "embedding/siamese_calibrator.h"
#include "la/vector_ops.h"
#include "text/tokenizer.h"
#include "util/random.h"
#include "util/serde.h"

namespace wym::embedding {
namespace {

/// Row `i` of a row-major block of `dim`-float rows.
la::Vec Row(const la::Vec& block, size_t dim, size_t i) {
  return la::Vec(block.begin() + i * dim, block.begin() + (i + 1) * dim);
}

/// Concatenates vectors into one row-major block.
la::Vec Block(const std::vector<la::Vec>& rows) {
  la::Vec out;
  for (const la::Vec& row : rows) out.insert(out.end(), row.begin(), row.end());
  return out;
}

/// True when `a` and `b` hold the same floats bit for bit.
bool SameBits(const la::Vec& a, const la::Vec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

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
  const la::Vec base = {1.0f, 0.0f};
  la::Vec block = base;
  mixer.Mix(2, &block);
  EXPECT_EQ(block, base);
}

TEST(ContextMixerTest, OutputIsUnitNormAndContextDependent) {
  const ContextMixer mixer;
  const HashEmbedder embedder(24);
  la::Vec mixed_a =
      Block({embedder.Embed("camera"), embedder.Embed("digital")});
  la::Vec mixed_b = Block({embedder.Embed("camera"), embedder.Embed("lens")});
  mixer.Mix(24, &mixed_a);
  mixer.Mix(24, &mixed_b);
  ASSERT_EQ(mixed_a.size(), 48u);
  const la::Vec camera_a = Row(mixed_a, 24, 0);
  const la::Vec camera_b = Row(mixed_b, 24, 0);
  EXPECT_NEAR(la::Norm(camera_a), 1.0, 1e-5);
  // Same token, different context -> different contextual vector (R4).
  EXPECT_LT(la::Cosine(camera_a, camera_b), 0.9999);
  EXPECT_GT(la::Cosine(camera_a, camera_b), 0.5);
}

TEST(ContextMixerTest, ZeroBlendIsIdentity) {
  ContextMixer::Options options;
  options.blend = 0.0;
  const ContextMixer mixer(options);
  const HashEmbedder embedder(16);
  const la::Vec base = Block({embedder.Embed("a"), embedder.Embed("b")});
  la::Vec block = base;
  mixer.Mix(16, &block);
  EXPECT_EQ(block, base);
}

TEST(SiameseCalibratorTest, IdentityBeforeFit) {
  const SiameseCalibrator calibrator;
  const la::Vec v = {0.5f, 0.5f};
  la::Vec row = v;
  calibrator.Apply(row.data());
  EXPECT_EQ(row, v);
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

  const auto apply = [&](la::Vec v) {
    calibrator.Apply(v.data());
    return v;
  };
  auto objective = [&](bool calibrated) {
    double loss = 0.0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      const double target =
          labels[i] == 1 ? 1.0 : options.negative_target;
      const double cos =
          calibrated ? la::Cosine(apply(pairs[i].first),
                                  apply(pairs[i].second))
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
    EXPECT_EQ(encoder.EncodeTokens({"a", "b"}).size(), 2 * encoder.dim());
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

/// True when every component is finite.
bool AllFinite(const la::Vec& v) {
  for (const float x : v) {
    if (!std::isfinite(x)) return false;
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
    ASSERT_TRUE(AllFinite(v));
    EXPECT_NEAR(la::Norm(v), 1.0, 1e-5);
    for (size_t k = 0; k < options.numeric_dims; ++k) {
      EXPECT_EQ(v[numeric_base + k], 0.0f) << "numeric channel " << k;
    }
    EXPECT_TRUE(AllFinite(encoder.EncodeTokens({"sony", token, "camera"})));
  }
  // An overflowing code reads as +inf: still numeric, still finite.
  EXPECT_TRUE(AllFinite(encoder.EncodeTokenIsolated("34e605211")));
  EXPECT_TRUE(AllFinite(encoder.EncodeTokens({"sony", "34e605211"})));
}

TEST(SemanticEncoderTest, PoolTokensIsNormalizedMean) {
  const la::Vec pooled =
      SemanticEncoder::PoolTokens({1.0f, 0.0f, 0.0f, 1.0f}, 2);
  ASSERT_EQ(pooled.size(), 2u);
  EXPECT_NEAR(la::Norm(pooled), 1.0, 1e-5);
  EXPECT_NEAR(pooled[0], pooled[1], 1e-5);
  EXPECT_TRUE(SemanticEncoder::PoolTokens({}, 2).empty());
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

TEST(SemanticEncoderTest, TableIsFixedByTheModel) {
  // A long-lived process encodes an unbounded stream of distinct tokens.
  // The base-embedding table is derived from the model alone: encoding
  // neither grows it nor changes any result.
  const std::vector<std::vector<std::string>> corpus = {
      {"digital", "camera"}, {"digital", "camera", "lens"}};
  SemanticEncoder::Options options;
  SemanticEncoder encoder(options);
  encoder.Fit(corpus);
  CoocEmbedder::Options cooc_options = options.cooc;
  cooc_options.dim = options.cooc_dim;
  CoocEmbedder cooc(cooc_options);
  cooc.Fit(corpus);
  ASSERT_GT(cooc.vocabulary_size(), 0u);
  EXPECT_EQ(encoder.table_rows(), cooc.vocabulary_size());

  const la::Vec first_before = encoder.EncodeTokens({"tok0"});
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
  EXPECT_EQ(encoder.table_rows(), cooc.vocabulary_size());
  EXPECT_TRUE(SameBits(encoder.EncodeTokens({"tok0"}), first_before));
}

TEST(SemanticEncoderTest, RowsAreUnitNormOrZeroOnGeneratedRecords) {
  // The decision-unit generator takes the dot product of two encoded rows
  // as their cosine, so every row EncodeTokens returns must be unit-norm
  // or all-zero: in each mode, kSiamese after calibration.
  const text::Tokenizer tokenizer;
  for (const char* id : {"S-FZ", "S-WA", "T-AB"}) {
    for (const uint64_t seed : {uint64_t{3}, uint64_t{11}}) {
      const data::Dataset dataset = data::GenerateById(id, seed, 0.1);
      std::vector<std::vector<std::string>> descriptions;
      for (const data::EmRecord& record : dataset.records) {
        for (const data::Entity* entity : {&record.left, &record.right}) {
          std::vector<std::string> tokens;
          for (const std::string& value : entity->values) {
            for (std::string& token : tokenizer.Tokenize(value)) {
              tokens.push_back(std::move(token));
            }
          }
          descriptions.push_back(std::move(tokens));
        }
      }
      for (const EncoderMode mode :
           {EncoderMode::kPretrained, EncoderMode::kFineTuned,
            EncoderMode::kSiamese}) {
        SCOPED_TRACE(std::string(id) + " seed " + std::to_string(seed) +
                     " mode " + std::to_string(static_cast<int>(mode)));
        SemanticEncoder::Options options;
        options.mode = mode;
        SemanticEncoder encoder(options);
        encoder.Fit(descriptions);
        if (mode == EncoderMode::kSiamese) {
          const la::Vec before = encoder.EncodeTokens(descriptions[0]);
          encoder.FitSiamese(descriptions, dataset.Labels());
          ASSERT_FALSE(SameBits(encoder.EncodeTokens(descriptions[0]), before))
              << "calibration left the rows unchanged";
        }
        size_t unit_rows = 0;
        size_t other_rows = 0;
        std::string first_other;
        for (const std::vector<std::string>& tokens : descriptions) {
          const la::Vec block = encoder.EncodeTokens(tokens);
          ASSERT_EQ(block.size(), tokens.size() * encoder.dim());
          for (size_t i = 0; i < tokens.size(); ++i) {
            double squared = 0.0;
            for (size_t k = 0; k < encoder.dim(); ++k) {
              const double v = block[i * encoder.dim() + k];
              squared += v * v;
            }
            if (std::abs(squared - 1.0) <= 1e-5) {
              ++unit_rows;
            } else if (squared != 0.0) {
              if (other_rows++ == 0) {
                first_other = "'" + tokens[i] + "' has squared norm " +
                              std::to_string(squared);
              }
            }
          }
        }
        EXPECT_GT(unit_rows, 0u);
        EXPECT_EQ(other_rows, 0u) << "first: " << first_other;
      }
    }
  }
}

/// The Save bytes of `encoder`.
std::string SavedBytes(const SemanticEncoder& encoder) {
  std::ostringstream out;
  serde::Serializer s(&out);
  encoder.Save(&s);
  return out.str();
}

TEST(SemanticEncoderTest, FitSiameseCalibratesOnPooledPairsWithTwoSides) {
  // FitSiamese encodes and pools each pair itself, skipping a pair with an
  // empty side: its calibrator must equal one fitted by hand on those
  // pooled pairs, and in any other mode it must leave the encoder as is.
  const data::Dataset dataset = data::GenerateById("S-FZ", 5, 0.2);
  const text::Tokenizer tokenizer;
  std::vector<std::vector<std::string>> descriptions;
  const std::vector<int> labels = dataset.Labels();
  for (const data::EmRecord& record : dataset.records) {
    for (const data::Entity* entity : {&record.left, &record.right}) {
      std::vector<std::string> tokens;
      for (const std::string& value : entity->values) {
        for (std::string& token : tokenizer.Tokenize(value)) {
          tokens.push_back(std::move(token));
        }
      }
      descriptions.push_back(std::move(tokens));
    }
  }
  descriptions[2].clear();  // Pair 1 has an empty left side,
  descriptions[7].clear();  // pair 3 an empty right side.

  SemanticEncoder encoder;  // kSiamese by default.
  encoder.Fit(descriptions);
  std::vector<std::pair<la::Vec, la::Vec>> pairs;
  std::vector<int> kept_labels;
  for (size_t r = 0; r < labels.size(); ++r) {
    if (descriptions[2 * r].empty() || descriptions[2 * r + 1].empty()) {
      continue;
    }
    pairs.emplace_back(
        SemanticEncoder::PoolTokens(encoder.EncodeTokens(descriptions[2 * r]),
                                    encoder.dim()),
        SemanticEncoder::PoolTokens(
            encoder.EncodeTokens(descriptions[2 * r + 1]), encoder.dim()));
    kept_labels.push_back(labels[r]);
  }
  ASSERT_EQ(pairs.size(), labels.size() - 2);
  SiameseCalibrator reference{SemanticEncoderOptions{}.siamese};
  reference.Fit(pairs, kept_labels);
  std::ostringstream reference_bytes;
  serde::Serializer s(&reference_bytes);
  reference.Save(&s);

  encoder.FitSiamese(descriptions, labels);
  const std::string saved = SavedBytes(encoder);
  ASSERT_GT(saved.size(), reference_bytes.str().size());
  // The calibrator is the last part of the encoder's state.
  EXPECT_EQ(saved.substr(saved.size() - reference_bytes.str().size()),
            reference_bytes.str());

  SemanticEncoderOptions fine_tuned;
  fine_tuned.mode = EncoderMode::kFineTuned;
  SemanticEncoder uncalibrated(fine_tuned);
  uncalibrated.Fit(descriptions);
  const std::string before = SavedBytes(uncalibrated);
  uncalibrated.FitSiamese(descriptions, labels);
  EXPECT_EQ(SavedBytes(uncalibrated), before);
}

TEST(SemanticEncoderTest, EncodeIsIdenticalAcrossLoadCopyAndThreads) {
  // Table rows, tokens computed on the fly, numbers, "nan" and empty
  // tokens: the fitted encoder, its Save/Load round trip, a copy of it
  // and four threads encoding at once give the same block bit for bit.
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 4; ++i) {
    corpus.push_back({"sony", "digital", "camera", "37.5"});
    corpus.push_back({"sony", "digital", "lens", "37.5"});
    corpus.push_back({"nikon", "camera", "lens", "kit"});
  }
  SemanticEncoder fitted;
  fitted.Fit(corpus);
  ASSERT_GT(fitted.table_rows(), 0u);
  fitted.FitSiamese({corpus[0], corpus[1], corpus[0], corpus[2]}, {1, 0});

  const std::vector<std::vector<std::string>> descriptions = {
      {"sony", "digital", "camera"},
      {"zeiss", "tessar", "sonnar"},
      {"37.5", "1200", "sony"},
      {"nan", "camera", "NaN"},
      {"", "lens", ""},
      {"camera"},
      {},
  };
  std::vector<la::Vec> expected;
  for (const auto& tokens : descriptions) {
    expected.push_back(fitted.EncodeTokens(tokens));
  }

  std::stringstream stream;
  serde::Serializer s(&stream);
  fitted.Save(&s);
  SemanticEncoder loaded;
  serde::Deserializer d(&stream);
  ASSERT_TRUE(loaded.Load(&d));
  EXPECT_EQ(loaded.table_rows(), fitted.table_rows());
  const SemanticEncoder copy = fitted;
  for (size_t i = 0; i < descriptions.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(SameBits(loaded.EncodeTokens(descriptions[i]), expected[i]));
    EXPECT_TRUE(SameBits(copy.EncodeTokens(descriptions[i]), expected[i]));
  }

  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 50;
  std::vector<size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < descriptions.size(); ++i) {
          // Each thread walks the descriptions from its own offset.
          const size_t k = (i + t) % descriptions.size();
          if (!SameBits(loaded.EncodeTokens(descriptions[k]), expected[k])) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

}  // namespace
}  // namespace wym::embedding
