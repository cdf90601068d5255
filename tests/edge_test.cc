// Edge cases across modules that the main suites do not pin down.

#include <gtest/gtest.h>

#include <utility>

#include "baselines/similarity_features.h"
#include "core/feature_extractor.h"
#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/record.h"
#include "data/split.h"
#include "matching/stable_marriage.h"
#include "ml/metrics.h"
#include "text/tokenizer.h"
#include "util/random.h"

namespace wym {
namespace {

TEST(TokenizerEdgeTest, MultiDotNumbers) {
  const text::Tokenizer tokenizer;
  // "1.2.3" keeps digit-adjacent dots: a single version-like token.
  EXPECT_EQ(tokenizer.Tokenize("v 1.2.3"),
            (std::vector<std::string>{"v", "1.2.3"}));
  // Trailing dot is punctuation.
  EXPECT_EQ(tokenizer.Tokenize("end."), (std::vector<std::string>{"end"}));
  // Colon-separated times split (no digit-dot rule for ':').
  EXPECT_EQ(tokenizer.Tokenize("3:45"),
            (std::vector<std::string>{"3", "45"}));
}

TEST(TokenizerEdgeTest, ConsecutiveSeparators) {
  const text::Tokenizer tokenizer;
  // Note "a" alone would be removed as a stop word.
  EXPECT_EQ(tokenizer.Tokenize("x..y--c//d"),
            (std::vector<std::string>{"x", "y", "c", "d"}));
}

TEST(StableMarriageEdgeTest, ThresholdAboveEverything) {
  la::Matrix sim(3, 3, 0.4);
  EXPECT_TRUE(matching::StableMarriage(sim, 0.9).empty());
}

TEST(StableMarriageEdgeTest, MoreLeftsThanRights) {
  la::Matrix sim(5, 2, 0.8);
  const auto matching = matching::StableMarriage(sim, 0.5);
  EXPECT_EQ(matching.size(), 2u);  // One-to-one caps at min side.
}

TEST(ExplanationEdgeTest, RankIsStableUnderTies) {
  core::Explanation explanation;
  for (double impact : {0.5, -0.5, 0.5}) {
    explanation.units.push_back({{}, 0.0, impact});
  }
  const auto order = explanation.RankByImpactMagnitude();
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2}));  // stable_sort.
}

TEST(FeatureExtractorEdgeTest, EvenMedianSplitsAttribution) {
  const core::FeatureExtractor extractor(1, /*simplified=*/false);
  core::ScoredUnitSet set;
  for (double score : {0.1, 0.2, 0.3, 0.4}) {
    core::DecisionUnit unit;
    unit.paired = true;
    set.units.push_back(unit);
    set.scores.push_back(score);
  }
  size_t median_feature = 0, sum_feature = 0;
  const auto& names = extractor.feature_names();
  for (size_t f = 0; f < names.size(); ++f) {
    if (names[f] == "all_median") median_feature = f;
    if (names[f] == "all_sum") sum_feature = f;
  }
  // Value = mean of middle two; each contributes weight 0.5, read off
  // the one-hot impacts over those of all_sum (weight 1 on every unit).
  const auto impacts_under = [&](size_t feature) {
    std::vector<double> coefficients(extractor.dim(), 0.0);
    coefficients[feature] = 1.0;
    std::vector<double> row(extractor.dim()), impacts;
    extractor.Compute(set, row, coefficients, &impacts);
    return std::make_pair(row, impacts);
  };
  const auto [features, median] = impacts_under(median_feature);
  EXPECT_NEAR(features[median_feature], 0.25, 1e-12);
  const std::vector<double> sum = impacts_under(sum_feature).second;
  EXPECT_DOUBLE_EQ(median[0], 0.0);
  EXPECT_DOUBLE_EQ(median[1] / sum[1], 0.5);
  EXPECT_DOUBLE_EQ(median[2] / sum[2], 0.5);
  EXPECT_DOUBLE_EQ(median[3], 0.0);
}

TEST(MetricsEdgeTest, ThresholdHelpersDegenerateInputs) {
  EXPECT_DOUBLE_EQ(ml::BestF1Threshold({}, {}), 0.5);
  const double threshold = ml::BestF1Threshold({0.3, 0.4}, {0, 0});
  EXPECT_GT(threshold, 0.0);
  EXPECT_LT(threshold, 1.0);
  // Degenerate thresholds are identity mappings.
  EXPECT_DOUBLE_EQ(ml::RecalibrateProba(0.7, 0.0), 0.7);
  EXPECT_DOUBLE_EQ(ml::RecalibrateProba(0.7, 1.0), 0.7);
}

TEST(RngEdgeTest, ForkedStreamsDiverge) {
  Rng parent(1);
  Rng a(parent.Fork());
  Rng b(parent.Fork());
  bool differ = false;
  for (int i = 0; i < 16 && !differ; ++i) {
    differ = a.Uniform() != b.Uniform();
  }
  EXPECT_TRUE(differ);
}

TEST(DatasetEdgeTest, EmptySubset) {
  data::Dataset dataset;
  dataset.name = "d";
  dataset.schema = {{"a"}};
  const data::Dataset subset = data::Subset(dataset, {}, "/empty");
  EXPECT_EQ(subset.size(), 0u);
  EXPECT_DOUBLE_EQ(subset.MatchPercent(), 0.0);
}

TEST(SimilarityFeaturesEdgeTest, BothEmptyValues) {
  const auto features = baselines::AttributePairFeatures("", "");
  ASSERT_EQ(features.size(), baselines::kPerAttributeFeatures);
  EXPECT_DOUBLE_EQ(features.back(), 0.0);  // Both-present flag off.
  for (double f : features) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0 + 1e-12);
  }
}

TEST(WymEdgeTest, RecordWithEmptyEntityStillPredicts) {
  const data::Dataset dataset = data::GenerateById("S-FZ", 13, 0.2);
  const data::Split split = data::DefaultSplit(dataset, 13);
  core::WymModel model;
  model.Fit(split.train, split.validation);

  data::EmRecord record = split.test.records.front();
  for (auto& value : record.right.values) value.clear();
  const double proba = model.PredictProba(record);
  EXPECT_GE(proba, 0.0);
  EXPECT_LE(proba, 1.0);
  // All surviving units are unpaired lefts.
  const core::Explanation explanation = model.Explain(record);
  for (const auto& eu : explanation.units) {
    EXPECT_FALSE(eu.unit.paired);
    EXPECT_EQ(eu.unit.unpaired_side, core::Side::kLeft);
  }
}

TEST(WymEdgeTest, BothEntitiesEmptyYieldNoUnits) {
  const data::Dataset dataset = data::GenerateById("S-FZ", 13, 0.2);
  const data::Split split = data::DefaultSplit(dataset, 13);
  core::WymModel model;
  model.Fit(split.train, split.validation);

  data::EmRecord record;
  record.left.values.assign(dataset.schema.size(), "");
  record.right.values.assign(dataset.schema.size(), "");
  const core::Explanation explanation = model.Explain(record);
  EXPECT_TRUE(explanation.units.empty());
  EXPECT_GE(explanation.probability, 0.0);
  EXPECT_LE(explanation.probability, 1.0);
}

}  // namespace
}  // namespace wym
