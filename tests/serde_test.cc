#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/split.h"
#include "embedding/semantic_encoder.h"
#include "ml/classifier_pool.h"
#include "nn/mlp.h"
#include "util/random.h"
#include "util/serde.h"

namespace wym {
namespace {

TEST(SerdeTest, PrimitivesRoundTrip) {
  std::stringstream stream;
  serde::Serializer s(&stream);
  s.Tag("test/v1");
  s.U64(42);
  s.I64(-7);
  s.Bool(true);
  s.F64(0.1);  // Not exactly representable: hexfloat must round-trip.
  s.F64(-1e300);
  s.Str("hello world\nwith newline");
  s.VecF64({1.5, -2.25, 0.0});
  s.VecF32({0.5f});
  s.VecU64({});

  serde::Deserializer d(&stream);
  EXPECT_TRUE(d.Tag("test/v1"));
  EXPECT_EQ(d.U64(), 42u);
  EXPECT_EQ(d.I64(), -7);
  EXPECT_TRUE(d.Bool());
  EXPECT_EQ(d.F64(), 0.1);  // Exact.
  EXPECT_EQ(d.F64(), -1e300);
  EXPECT_EQ(d.Str(), "hello world\nwith newline");
  EXPECT_EQ(d.VecF64(), (std::vector<double>{1.5, -2.25, 0.0}));
  EXPECT_EQ(d.VecF32(), (std::vector<float>{0.5f}));
  EXPECT_TRUE(d.VecU64().empty());
  EXPECT_TRUE(d.ok());
}

TEST(SerdeTest, TagMismatchFails) {
  std::stringstream stream;
  serde::Serializer s(&stream);
  s.Tag("alpha/v1");
  serde::Deserializer d(&stream);
  EXPECT_FALSE(d.Tag("beta/v1"));
  EXPECT_FALSE(d.ok());
}

TEST(SerdeTest, TruncatedInputFails) {
  std::stringstream stream("3");
  serde::Deserializer d(&stream);
  (void)d.U64();
  (void)d.U64();  // Nothing left.
  EXPECT_FALSE(d.ok());
}

TEST(SerdeTest, AbsurdVectorLengthFails) {
  std::stringstream stream("999999999999 1 2 3");
  serde::Deserializer d(&stream);
  (void)d.VecF64();
  EXPECT_FALSE(d.ok());
}

// Regression: Str() used to consume the byte after the length blindly.
// On corrupt input whose separator is not the ' ' the Serializer wrote,
// that byte belongs to the string body, and swallowing it silently
// shifted every subsequent read by one.
TEST(SerdeTest, StrRejectsMissingSeparator) {
  std::stringstream stream("5-hello 7");
  serde::Deserializer d(&stream);
  EXPECT_EQ(d.Str(), "");
  EXPECT_FALSE(d.ok());
}

TEST(SerdeTest, StrRejectsLengthAtEof) {
  std::stringstream stream("5");
  serde::Deserializer d(&stream);
  (void)d.Str();
  EXPECT_FALSE(d.ok());
}

TEST(SerdeTest, StrRejectsTruncatedBody) {
  std::stringstream stream("10 short");
  serde::Deserializer d(&stream);
  (void)d.Str();
  EXPECT_FALSE(d.ok());
}

TEST(MlpSerdeTest, RoundTripPredictsIdentically) {
  Rng rng(3);
  la::Matrix x(64, 4);
  std::vector<double> y(64);
  for (size_t i = 0; i < 64; ++i) {
    for (size_t j = 0; j < 4; ++j) x.At(i, j) = rng.Uniform(-1, 1);
    y[i] = x.At(i, 0) - x.At(i, 2);
  }
  nn::MlpOptions options;
  options.hidden = {8, 4};
  options.epochs = 20;
  nn::Mlp original(options);
  original.Fit(x, y);

  std::stringstream stream;
  serde::Serializer s(&stream);
  original.Save(&s);
  nn::Mlp restored;
  serde::Deserializer d(&stream);
  ASSERT_TRUE(restored.Load(&d));
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(restored.Predict(x.RowVector(i)),
                     original.Predict(x.RowVector(i)));
  }
}

// Every pool member must round-trip through SaveState/LoadState with
// bit-identical predictions.
class ClassifierSerdeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ClassifierSerdeTest, RoundTripPredictsIdentically) {
  Rng rng(11);
  la::Matrix x(120, 3);
  std::vector<int> y(120);
  for (size_t i = 0; i < 120; ++i) {
    y[i] = static_cast<int>(i % 2);
    x.At(i, 0) = rng.Normal(y[i] == 1 ? 1.0 : -1.0, 0.5);
    x.At(i, 1) = rng.Normal(0, 1);
    x.At(i, 2) = rng.Normal(y[i] == 1 ? -0.5 : 0.5, 0.7);
  }
  auto original = ml::MakeClassifier(GetParam(), 5);
  original->Fit(x, y);

  std::stringstream stream;
  serde::Serializer s(&stream);
  original->SaveState(&s);

  auto restored = ml::MakeClassifier(GetParam(), 99);  // Seed irrelevant.
  serde::Deserializer d(&stream);
  ASSERT_TRUE(restored->LoadState(&d, x.cols())) << GetParam();
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_DOUBLE_EQ(restored->PredictProba(x.RowVector(i)),
                     original->PredictProba(x.RowVector(i)))
        << GetParam();
  }
  // The importance computed on demand must not change either.
  EXPECT_EQ(restored->SignedImportance(x), original->SignedImportance(x))
      << GetParam();
}

TEST_P(ClassifierSerdeTest, RejectsWrongTag) {
  std::stringstream stream;
  serde::Serializer s(&stream);
  s.Tag("garbage/v1");
  auto classifier = ml::MakeClassifier(GetParam(), 1);
  serde::Deserializer d(&stream);
  EXPECT_FALSE(classifier->LoadState(&d, 3)) << GetParam();
}

TEST_P(ClassifierSerdeTest, RejectsStateOfAnotherWidth) {
  // Fitted on 3-wide rows, every member's state names feature widths or
  // split features that a 0-wide row does not have.
  Rng rng(12);
  la::Matrix x(60, 3);
  std::vector<int> y(60);
  for (size_t i = 0; i < 60; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (size_t j = 0; j < 3; ++j) {
      x.At(i, j) = rng.Normal(y[i] == 1 ? 1.0 : -1.0, 0.5);
    }
  }
  auto original = ml::MakeClassifier(GetParam(), 5);
  original->Fit(x, y);
  std::stringstream stream;
  serde::Serializer s(&stream);
  original->SaveState(&s);
  auto restored = ml::MakeClassifier(GetParam(), 5);
  serde::Deserializer d(&stream);
  EXPECT_FALSE(restored->LoadState(&d, 0)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllPoolMembers, ClassifierSerdeTest,
                         ::testing::ValuesIn(ml::PoolMemberNames()),
                         [](const auto& info) { return info.param; });

TEST(EncoderSerdeTest, RoundTripEncodesIdentically) {
  embedding::SemanticEncoderOptions options;
  options.hash_dim = 16;
  options.cooc_dim = 8;
  embedding::SemanticEncoder original(options);
  original.Fit({{"digital", "camera", "sony"}, {"digital", "lens"}});

  std::stringstream stream;
  serde::Serializer s(&stream);
  original.Save(&s);
  embedding::SemanticEncoder restored;
  serde::Deserializer d(&stream);
  ASSERT_TRUE(restored.Load(&d));
  EXPECT_EQ(restored.dim(), original.dim());
  EXPECT_EQ(restored.EncodeTokens({"digital", "camera", "37.5"}),
            original.EncodeTokens({"digital", "camera", "37.5"}));
}

TEST(WymModelSerdeTest, FileRoundTripPredictsIdentically) {
  const data::Dataset dataset = data::GenerateById("S-FZ", 42, 0.3);
  const data::Split split = data::DefaultSplit(dataset, 42);
  core::WymModel original;
  original.Fit(split.train, split.validation);

  const std::string path = "/tmp/wym_model_roundtrip.bin";
  ASSERT_TRUE(original.SaveToFile(path).ok());

  auto loaded = core::WymModel::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const core::WymModel& restored = loaded.value();
  EXPECT_TRUE(restored.fitted());
  EXPECT_EQ(restored.matcher().best_name(), original.matcher().best_name());

  for (size_t i = 0; i < split.test.size(); ++i) {
    const data::EmRecord& record = split.test.records[i];
    EXPECT_DOUBLE_EQ(restored.PredictProba(record),
                     original.PredictProba(record));
  }
  // Explanations round-trip too (units + relevance + impacts).
  const core::Explanation a = original.Explain(split.test.records[0]);
  const core::Explanation b = restored.Explain(split.test.records[0]);
  ASSERT_EQ(a.units.size(), b.units.size());
  for (size_t u = 0; u < a.units.size(); ++u) {
    EXPECT_EQ(a.units[u].unit.Label(), b.units[u].unit.Label());
    EXPECT_DOUBLE_EQ(a.units[u].relevance, b.units[u].relevance);
    EXPECT_DOUBLE_EQ(a.units[u].impact, b.units[u].impact);
  }
}

TEST(WymModelSerdeTest, SaveUnfittedFails) {
  core::WymModel model;
  EXPECT_FALSE(model.SaveToFile("/tmp/never.bin").ok());
}

TEST(WymModelSerdeTest, LoadMissingFileFails) {
  EXPECT_FALSE(core::WymModel::LoadFromFile("/tmp/nonexistent.wym").ok());
}

TEST(WymModelSerdeTest, RuleCountMismatchIsRejected) {
  const data::Dataset dataset = data::GenerateById("S-FZ", 7, 0.15);
  const data::Split split = data::DefaultSplit(dataset, 7);
  core::WymConfig config;
  config.generator.rules.push_back(core::EqualProductCodeRule());
  core::WymModel model(config);
  model.Fit(split.train, split.validation);
  const std::string path = "/tmp/wym_model_rules.bin";
  ASSERT_TRUE(model.SaveToFile(path).ok());

  // Loading without re-supplying the rule must fail loudly...
  EXPECT_FALSE(core::WymModel::LoadFromFile(path).ok());
  // ...and succeed when the rule is passed back in.
  auto loaded = core::WymModel::LoadFromFile(
      path, {core::EqualProductCodeRule()});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_DOUBLE_EQ(loaded.value().PredictProba(split.test.records[0]),
                   model.PredictProba(split.test.records[0]));
}

}  // namespace
}  // namespace wym
