// Tests for the analysis extensions: global (dataset-level) attribution,
// dataset profiling and counterfactuals.

#include <gtest/gtest.h>

#include "core/wym.h"
#include "data/statistics.h"
#include "data/benchmark_gen.h"
#include "data/split.h"
#include "explain/counterfactual.h"
#include "explain/global.h"
#include "ml/metrics.h"
#include "text/tokenizer.h"

namespace wym {
namespace {

TEST(GlobalAttributionTest, AggregatesAcrossRecords) {
  const data::Dataset dataset = data::GenerateById("S-FZ", 42, 0.3);
  const data::Split split = data::DefaultSplit(dataset, 42);
  core::WymModel model;
  model.Fit(split.train, split.validation);

  const explain::GlobalAttribution report =
      explain::ComputeGlobalAttribution(model, split.test, 5);
  EXPECT_EQ(report.records_analyzed, split.test.size());
  ASSERT_EQ(report.attributes.size(), dataset.schema.size());
  size_t total_units = 0;
  for (const auto& influence : report.attributes) {
    total_units += influence.unit_count;
    EXPECT_GE(influence.mean_absolute_impact, 0.0);
  }
  EXPECT_GT(total_units, split.test.size());  // Several units per record.

  // Recurring unit lists respect their sign contract and the top_k cap.
  EXPECT_LE(report.top_match_units.size(), 5u);
  EXPECT_LE(report.top_non_match_units.size(), 5u);
  for (const auto& unit : report.top_match_units) {
    EXPECT_GT(unit.mean_impact, 0.0);
    EXPECT_GE(unit.occurrences, 2u);
  }
  for (const auto& unit : report.top_non_match_units) {
    EXPECT_LT(unit.mean_impact, 0.0);
  }
}

TEST(GlobalAttributionTest, IdentityAttributeDominates) {
  // The restaurant name carries the identity: its mean |impact| should
  // top the city/type attributes.
  const data::Dataset dataset = data::GenerateById("S-FZ", 42, 0.3);
  const data::Split split = data::DefaultSplit(dataset, 42);
  core::WymModel model;
  model.Fit(split.train, split.validation);
  const explain::GlobalAttribution report =
      explain::ComputeGlobalAttribution(model, split.test);
  // Attribute 0 is "name".
  EXPECT_GT(report.attributes[0].mean_absolute_impact * 1.5,
            report.attributes[4].mean_absolute_impact);
}

TEST(GlobalAttributionTest, RenderContainsAttributeNames) {
  const data::Dataset dataset = data::GenerateById("S-BR", 3, 0.4);
  const data::Split split = data::DefaultSplit(dataset, 3);
  core::WymModel model;
  model.Fit(split.train, split.validation);
  const explain::GlobalAttribution report =
      explain::ComputeGlobalAttribution(model, split.test);
  const std::string text =
      explain::RenderGlobalAttribution(report, dataset.schema);
  EXPECT_NE(text.find("beer_name"), std::string::npos);
  EXPECT_NE(text.find("global attribution"), std::string::npos);
}


TEST(CounterfactualTest, FlipsConfidentPredictions) {
  const data::Dataset dataset = data::GenerateById("S-FZ", 42, 0.3);
  const data::Split split = data::DefaultSplit(dataset, 42);
  core::WymModel model;
  model.Fit(split.train, split.validation);

  size_t attempted = 0, found = 0;
  for (const auto& record : split.test.records) {
    const core::Explanation explanation = model.Explain(record);
    if (explanation.units.size() < 3) continue;
    ++attempted;
    const explain::Counterfactual cf =
        explain::FindCounterfactual(model, explanation);
    if (cf.found) {
      ++found;
      EXPECT_NE(cf.flipped_prediction, explanation.prediction);
      EXPECT_FALSE(cf.removed_units.empty());
      EXPECT_LE(cf.removed_units.size(), 8u);
    } else {
      EXPECT_TRUE(cf.removed_units.empty());
    }
    if (attempted == 30) break;
  }
  ASSERT_GT(attempted, 10u);
  // Most confident predictions flip within the 8-unit budget.
  EXPECT_GT(static_cast<double>(found) / attempted, 0.5);
}

TEST(CounterfactualTest, EmptyExplanationIsHandled) {
  const data::Dataset dataset = data::GenerateById("S-FZ", 11, 0.15);
  const data::Split split = data::DefaultSplit(dataset, 11);
  core::WymModel model;
  model.Fit(split.train, split.validation);
  core::Explanation empty;
  const explain::Counterfactual cf =
      explain::FindCounterfactual(model, empty);
  EXPECT_FALSE(cf.found);
}

TEST(ProfileTest, ComputesMissingAndOverlap) {
  data::Dataset dataset;
  dataset.name = "profile";
  dataset.schema = {{"name", "brand"}};
  auto add = [&](const char* ln, const char* lb, const char* rn,
                 const char* rb, int label) {
    data::EmRecord record;
    record.left.values = {ln, lb};
    record.right.values = {rn, rb};
    record.label = label;
    dataset.records.push_back(record);
  };
  add("digital camera", "sony", "digital camera", "sony", 1);
  add("digital camera", "", "oak table", "ikea", 0);

  const data::DatasetProfile profile = data::ProfileDataset(dataset);
  EXPECT_EQ(profile.records, 2u);
  EXPECT_EQ(profile.matches, 1u);
  ASSERT_EQ(profile.attributes.size(), 2u);
  EXPECT_DOUBLE_EQ(profile.attributes[0].missing_rate, 0.0);
  EXPECT_DOUBLE_EQ(profile.attributes[1].missing_rate, 0.5);
  EXPECT_DOUBLE_EQ(profile.attributes[0].match_overlap, 1.0);
  EXPECT_DOUBLE_EQ(profile.attributes[0].non_match_overlap, 0.0);
  EXPECT_DOUBLE_EQ(profile.attributes[0].overlap_gap, 1.0);

  const std::string text = data::RenderProfile(profile);
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("2 records"), std::string::npos);
}

TEST(ProfileTest, SignalGapOrdersAttributesOnBenchmark) {
  // The identity attribute must show a larger match/non-match overlap gap
  // than the price attribute on the product benchmark.
  const data::DatasetProfile profile =
      data::ProfileDataset(data::GenerateById("S-WA", 42, 0.5));
  EXPECT_GT(profile.attributes[0].overlap_gap,
            profile.attributes[2].overlap_gap);
}

}  // namespace
}  // namespace wym
