// Randomized property tests: invariants that must hold for arbitrary
// inputs — tokenizer robustness, corruption safety, CSV round trips over
// random content, stable-marriage structure at random sizes, and the
// decision-unit constraints under randomly generated records.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/feature_extractor.h"
#include "core/tokenized_record.h"
#include "core/unit_generator.h"
#include "data/benchmark_gen.h"
#include "data/corruption.h"
#include "data/csv.h"
#include "explain/token_explanation.h"
#include "matching/stable_marriage.h"
#include "text/string_metrics.h"
#include "text/tokenizer.h"
#include "util/random.h"

namespace wym {
namespace {

std::string RandomString(Rng* rng, size_t max_length) {
  static constexpr std::string_view kAlphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789 .,-/\"'()&";
  const size_t length = rng->Index(max_length + 1);
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    out += kAlphabet[rng->Index(kAlphabet.size())];
  }
  return out;
}

// ---------------------------------------------------------------------
// Tokenizer.
// ---------------------------------------------------------------------

TEST(TokenizerPropertyTest, NeverProducesEmptyOrSpacedTokens) {
  Rng rng(1);
  const text::Tokenizer tokenizer;
  for (int trial = 0; trial < 500; ++trial) {
    for (const auto& token : tokenizer.Tokenize(RandomString(&rng, 60))) {
      EXPECT_FALSE(token.empty());
      EXPECT_EQ(token.find(' '), std::string::npos);
      for (char c : token) {
        EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '.')
            << "token '" << token << "'";
      }
    }
  }
}

TEST(TokenizerPropertyTest, IdempotentOnItsOwnOutput) {
  Rng rng(2);
  const text::Tokenizer tokenizer;
  for (int trial = 0; trial < 200; ++trial) {
    const auto tokens = tokenizer.Tokenize(RandomString(&rng, 60));
    std::string joined;
    for (const auto& token : tokens) {
      if (!joined.empty()) joined += ' ';
      joined += token;
    }
    EXPECT_EQ(tokenizer.Tokenize(joined), tokens);
  }
}

// ---------------------------------------------------------------------
// String metrics.
// ---------------------------------------------------------------------

TEST(MetricPropertyTest, SimilaritiesAreSymmetricAndBounded) {
  Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string a = RandomString(&rng, 12);
    const std::string b = RandomString(&rng, 12);
    for (auto metric : {text::JaroSimilarity, text::JaroWinklerSimilarity,
                        text::LevenshteinSimilarity}) {
      const double ab = metric(a, b);
      EXPECT_GE(ab, 0.0);
      EXPECT_LE(ab, 1.0 + 1e-12);
      EXPECT_NEAR(ab, metric(b, a), 1e-12);
    }
    EXPECT_DOUBLE_EQ(text::JaroWinklerSimilarity(a, a), 1.0);
  }
}

TEST(MetricPropertyTest, LevenshteinTriangleInequality) {
  Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string a = RandomString(&rng, 10);
    const std::string b = RandomString(&rng, 10);
    const std::string c = RandomString(&rng, 10);
    EXPECT_LE(text::LevenshteinDistance(a, c),
              text::LevenshteinDistance(a, b) +
                  text::LevenshteinDistance(b, c));
  }
}

// ---------------------------------------------------------------------
// Corruption model.
// ---------------------------------------------------------------------

TEST(CorruptionPropertyTest, ViewKeepsSchemaAndIdentity) {
  Rng rng(5);
  data::Schema schema{{"name", "brand", "price"}};
  data::CorruptionProfile profile;  // Aggressive everything.
  profile.typo = 0.3;
  profile.drop_token = 0.3;
  profile.abbreviate = 0.5;
  profile.duplicate_token = 0.3;
  profile.reorder = 0.5;
  profile.value_missing = 0.5;
  profile.numeric_jitter = 0.5;
  profile.synonym = 0.5;
  profile.attr_spill = 0.5;
  for (int trial = 0; trial < 300; ++trial) {
    data::Entity entity;
    entity.values = {RandomString(&rng, 40), RandomString(&rng, 10),
                     "19.99"};
    if (entity.values[0].empty()) entity.values[0] = "x";
    const data::Entity view =
        data::CorruptEntity(entity, schema, profile, &rng);
    EXPECT_EQ(view.values.size(), schema.size());
    // Identity attribute never fully vanishes unless it spilled into
    // itself (attribute 0 is the spill target, so it only grows).
    EXPECT_FALSE(view.values[0].empty());
  }
}

// ---------------------------------------------------------------------
// CSV.
// ---------------------------------------------------------------------

TEST(CsvPropertyTest, RandomContentRoundTrips) {
  Rng rng(6);
  for (int trial = 0; trial < 100; ++trial) {
    data::Dataset dataset;
    dataset.name = "fuzz";
    dataset.schema = {{"a", "b"}};
    const size_t n = 1 + rng.Index(8);
    for (size_t i = 0; i < n; ++i) {
      data::EmRecord record;
      record.left.values = {RandomString(&rng, 20), RandomString(&rng, 20)};
      record.right.values = {RandomString(&rng, 20), RandomString(&rng, 20)};
      record.label = static_cast<int>(rng.Index(2));
      dataset.records.push_back(std::move(record));
    }
    const auto parsed =
        data::DatasetFromCsv(data::DatasetToCsv(dataset), "fuzz");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(parsed.value().size(), dataset.size());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(parsed.value().records[i].left.values,
                dataset.records[i].left.values);
      EXPECT_EQ(parsed.value().records[i].right.values,
                dataset.records[i].right.values);
      EXPECT_EQ(parsed.value().records[i].label, dataset.records[i].label);
    }
  }
}

TEST(CsvPropertyTest, GarbageInputNeverCrashes) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string garbage = RandomString(&rng, 200);
    (void)data::DatasetFromCsv(garbage, "garbage");  // Must not crash.
  }
}

// ---------------------------------------------------------------------
// Stable marriage at random sizes (TEST_P sweep).
// ---------------------------------------------------------------------

class StableMarriagePropertyTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(StableMarriagePropertyTest, StructureHoldsAtThisShape) {
  const auto [n_left, n_right] = GetParam();
  Rng rng(100 + n_left * 31 + n_right);
  for (int trial = 0; trial < 20; ++trial) {
    la::Matrix sim(n_left, n_right);
    for (size_t i = 0; i < n_left; ++i) {
      for (size_t j = 0; j < n_right; ++j) sim.At(i, j) = rng.Uniform();
    }
    const double threshold = rng.Uniform(0.0, 0.9);
    const auto matching = matching::StableMarriage(sim, threshold);
    EXPECT_TRUE(matching::IsStableMatching(sim, threshold, matching));
    EXPECT_LE(matching.size(), std::min(n_left, n_right));
    for (const auto& pair : matching) {
      EXPECT_GE(sim.At(pair.left, pair.right), threshold);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StableMarriagePropertyTest,
    ::testing::Values(std::make_pair<size_t, size_t>(1, 1),
                      std::make_pair<size_t, size_t>(1, 9),
                      std::make_pair<size_t, size_t>(9, 1),
                      std::make_pair<size_t, size_t>(5, 5),
                      std::make_pair<size_t, size_t>(12, 7),
                      std::make_pair<size_t, size_t>(7, 12),
                      std::make_pair<size_t, size_t>(20, 20)),
    [](const auto& info) {
      return "L" + std::to_string(info.param.first) + "xR" +
             std::to_string(info.param.second);
    });

// ---------------------------------------------------------------------
// Decision-unit constraints under random records.
// ---------------------------------------------------------------------

TEST(UnitGeneratorPropertyTest, ConstraintsHoldForRandomRecords) {
  Rng rng(8);
  const text::Tokenizer tokenizer;
  embedding::SemanticEncoderOptions encoder_options;
  encoder_options.mode = embedding::EncoderMode::kPretrained;
  encoder_options.hash_dim = 16;
  encoder_options.cooc_dim = 0;
  encoder_options.numeric_dims = 4;
  embedding::SemanticEncoder encoder(encoder_options);
  encoder.Fit({});
  const core::DecisionUnitGenerator generator;

  const data::Schema schema{{"a", "b"}};
  for (int trial = 0; trial < 150; ++trial) {
    data::EmRecord record;
    record.left.values = {RandomString(&rng, 30), RandomString(&rng, 10)};
    record.right.values = {RandomString(&rng, 30), RandomString(&rng, 10)};
    core::TokenizedRecord tokenized =
        core::TokenizeRecord(record, schema, tokenizer);
    core::EncodeEntity(encoder, &tokenized.left);
    core::EncodeEntity(encoder, &tokenized.right);
    const auto units =
        generator.Generate(tokenized.left, tokenized.right, schema.size());
    EXPECT_TRUE(
        core::CheckUnitConstraints(units, tokenized.left, tokenized.right));
    // Phase sanity: one-to-many units always pair with a token that is
    // also in another (earlier) paired unit.
    for (const auto& unit : units) {
      if (unit.paired) {
        EXPECT_NE(unit.phase, core::UnitPhase::kUnpaired);
      } else {
        EXPECT_EQ(unit.phase, core::UnitPhase::kUnpaired);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Feature pass: features and unit impacts against paper §4.3.
// ---------------------------------------------------------------------

/// A feature's value and the units it is computed from, each with its
/// §4.3 weight, in the order the impacts sum them.
struct ReferenceFeature {
  double value = 0.0;
  std::vector<std::pair<size_t, double>> weights;
};

/// Whether `unit` belongs to the group named `group` ("all", "pos",
/// "attr2_unpaired", ...). Anchors past the schema fold into its last
/// attribute.
bool InGroup(const std::string& group, const core::DecisionUnit& unit,
             double score, size_t num_attributes) {
  if (group == "all") return true;
  if (group == "pos") return score > 0.0;
  if (group == "neg") return !(score > 0.0);
  if (group == "paired") return unit.paired;
  if (group == "unpaired") return !unit.paired;
  if (group == "left_unpaired") {
    return !unit.paired && unit.unpaired_side == core::Side::kLeft;
  }
  if (group == "right_unpaired") {
    return !unit.paired && unit.unpaired_side == core::Side::kRight;
  }
  EXPECT_EQ(group.rfind("attr", 0), 0u) << group;
  const size_t attribute = std::stoul(group.substr(4));
  const bool paired_group = !group.ends_with("_unpaired");
  return unit.paired == paired_group &&
         std::min(unit.AnchorAttribute(), num_attributes - 1) == attribute;
}

/// Evaluates the feature named `<group>_<stat>` from the paper's
/// definition: a count or mean over N units weighs each 1/N, a sum 1,
/// min/max/median go to the achieving unit (the first in unit order on
/// a tie; the middle two of an even median get 1/2 each), and a range
/// is +1 on its max and -1 on its min unit.
ReferenceFeature EvaluateFeature(const std::string& name,
                                 const core::ScoredUnitSet& set,
                                 size_t num_attributes) {
  const size_t cut = name.rfind('_');
  const std::string group = name.substr(0, cut);
  const std::string stat = name.substr(cut + 1);
  std::vector<size_t> members;
  for (size_t u = 0; u < set.size(); ++u) {
    if (InGroup(group, set.units[u], set.scores[u], num_attributes)) {
      members.push_back(u);
    }
  }
  ReferenceFeature out;
  const size_t n = members.size();
  if (n == 0) return out;
  const auto score = [&](size_t u) { return set.scores[u]; };
  const auto by_score = [&](size_t a, size_t b) {
    return score(a) < score(b);
  };
  double sum = 0.0;
  for (size_t u : members) sum += score(u);
  if (stat == "count" || stat == "mean" || stat == "sum") {
    const double weight = stat == "sum" ? 1.0 : 1.0 / static_cast<double>(n);
    for (size_t u : members) out.weights.push_back({u, weight});
    out.value = stat == "count" ? static_cast<double>(n)
                : stat == "sum" ? sum
                                : sum / static_cast<double>(n);
  } else if (stat == "median") {
    std::vector<size_t> order = members;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return std::make_pair(score(a), a) < std::make_pair(score(b), b);
    });
    if (n % 2 == 1) {
      out.value = score(order[n / 2]);
      out.weights.push_back({order[n / 2], 1.0});
    } else {
      const size_t lo = order[n / 2 - 1], hi = order[n / 2];
      out.value = 0.5 * (score(lo) + score(hi));
      out.weights = {{lo, 0.5}, {hi, 0.5}};
    }
  } else {
    const size_t max_u =
        *std::max_element(members.begin(), members.end(), by_score);
    const size_t min_u =
        *std::min_element(members.begin(), members.end(), by_score);
    if (stat == "max") {
      out.value = score(max_u);
      out.weights.push_back({max_u, 1.0});
    } else if (stat == "min") {
      out.value = score(min_u);
      out.weights.push_back({min_u, 1.0});
    } else {
      EXPECT_EQ(stat, "range");
      out.value = score(max_u) - score(min_u);
      out.weights = {{max_u, 1.0}, {min_u, -1.0}};
    }
  }
  return out;
}

core::ScoredUnitSet RandomScoredSet(Rng* rng, size_t num_attributes) {
  // Score regimes: continuous, a few tied levels, all positive, all
  // negative.
  static constexpr double kLevels[] = {-0.5, -0.25, 0.0, 0.25, 0.5};
  const size_t regime = rng->Index(4);
  core::ScoredUnitSet set;
  const size_t n = rng->Index(41);
  for (size_t u = 0; u < n; ++u) {
    core::DecisionUnit unit;
    unit.paired = rng->Bernoulli(0.5);
    unit.unpaired_side =
        rng->Bernoulli(0.5) ? core::Side::kLeft : core::Side::kRight;
    // Up to two attributes past the schema width.
    unit.left.attribute = rng->Index(num_attributes + 3);
    unit.right.attribute = rng->Index(num_attributes + 3);
    set.units.push_back(unit);
    switch (regime) {
      case 0:
        set.scores.push_back(rng->Uniform(-1.0, 1.0));
        break;
      case 1:
        set.scores.push_back(kLevels[rng->Index(std::size(kLevels))]);
        break;
      case 2:
        set.scores.push_back(rng->Uniform(0.01, 1.0));
        break;
      default:
        set.scores.push_back(rng->Uniform(-1.0, -0.01));
        break;
    }
  }
  return set;
}

TEST(FeatureExtractorPropertyTest, ImpactsMatchPaperDefinition) {
  Rng rng(10);
  size_t range_on_one_unit = 0, tied_even_medians = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const size_t num_attributes = rng.Index(5);
    const bool simplified = rng.Bernoulli(0.5);
    const core::FeatureExtractor extractor(num_attributes, simplified);
    const core::ScoredUnitSet set = RandomScoredSet(&rng, num_attributes);
    std::vector<double> coefficients(extractor.dim());
    for (double& c : coefficients) c = rng.Uniform(-2.0, 2.0);

    std::vector<double> row(extractor.dim()), impacts;
    extractor.Compute(set, row, coefficients, &impacts);
    // The impacts ride along: they change no feature.
    std::vector<double> features_only(extractor.dim());
    extractor.Compute(set, features_only);
    EXPECT_EQ(features_only, row);

    // Each unit sums coefficient x weight x relevance in layout order
    // (counts use |relevance|), then takes the mean.
    std::vector<double> sums(set.size(), 0.0);
    std::vector<size_t> touched(set.size(), 0);
    const auto& names = extractor.feature_names();
    ASSERT_EQ(row.size(), names.size());
    for (size_t f = 0; f < names.size(); ++f) {
      const ReferenceFeature feature =
          EvaluateFeature(names[f], set, num_attributes);
      EXPECT_EQ(row[f], feature.value)
          << names[f] << " trial " << trial << " units " << set.size();
      const bool count = names[f].ends_with("_count");
      for (const auto& [u, weight] : feature.weights) {
        const double relevance =
            count ? std::abs(set.scores[u]) : set.scores[u];
        sums[u] += coefficients[f] * weight * relevance;
        ++touched[u];
      }
      if (names[f].ends_with("_range") && feature.weights.size() == 2 &&
          feature.weights[0].first == feature.weights[1].first) {
        ++range_on_one_unit;
      }
      if (names[f].ends_with("_median") && feature.weights.size() == 2 &&
          set.scores[feature.weights[0].first] ==
              set.scores[feature.weights[1].first]) {
        ++tied_even_medians;
      }
    }
    ASSERT_EQ(impacts.size(), set.size());
    for (size_t u = 0; u < set.size(); ++u) {
      const double expected =
          touched[u] == 0 ? 0.0 : sums[u] / static_cast<double>(touched[u]);
      EXPECT_EQ(impacts[u], expected) << "unit " << u << " trial " << trial;
    }
  }
  // The draws reach the tie cases the definition has to settle.
  EXPECT_GT(range_on_one_unit, 0u);
  EXPECT_GT(tied_even_medians, 0u);
}

// ---------------------------------------------------------------------
// MaskRecord.
// ---------------------------------------------------------------------

TEST(MaskRecordPropertyTest, KeptTokenCountMatchesMask) {
  Rng rng(9);
  const text::Tokenizer tokenizer;
  for (int trial = 0; trial < 150; ++trial) {
    data::EmRecord record;
    record.left.values = {RandomString(&rng, 30)};
    record.right.values = {RandomString(&rng, 30)};
    const auto tokens = explain::EnumerateTokens(record, tokenizer);
    std::vector<bool> keep(tokens.size());
    size_t kept = 0;
    for (size_t t = 0; t < tokens.size(); ++t) {
      keep[t] = rng.Bernoulli(0.5);
      kept += keep[t];
    }
    const data::EmRecord masked =
        explain::MaskRecord(record, tokens, keep);
    const auto masked_tokens = explain::EnumerateTokens(masked, tokenizer);
    EXPECT_EQ(masked_tokens.size(), kept);
  }
}

// ---------------------------------------------------------------------
// Benchmark generator: labels are consistent with identity by
// construction — matching records must share identity tokens far more
// often than random non-matches.
// ---------------------------------------------------------------------

TEST(GeneratorPropertyTest, MatchesOverlapMoreThanNonMatches) {
  const text::Tokenizer tokenizer;
  for (const char* id : {"S-DA", "S-WA", "S-FZ"}) {
    const data::Dataset dataset = data::GenerateById(id, 99, 0.3);
    double match_overlap = 0.0, non_match_overlap = 0.0;
    size_t matches = 0, non_matches = 0;
    for (const auto& record : dataset.records) {
      const auto lt = tokenizer.Tokenize(record.left.values[0]);
      const auto rt = tokenizer.Tokenize(record.right.values[0]);
      size_t shared = 0;
      for (const auto& l : lt) {
        for (const auto& r : rt) shared += (l == r);
      }
      const double overlap =
          static_cast<double>(shared) /
          std::max<size_t>(1, std::max(lt.size(), rt.size()));
      if (record.label == 1) {
        match_overlap += overlap;
        ++matches;
      } else {
        non_match_overlap += overlap;
        ++non_matches;
      }
    }
    ASSERT_GT(matches, 0u);
    ASSERT_GT(non_matches, 0u);
    EXPECT_GT(match_overlap / matches,
              non_match_overlap / non_matches + 0.15)
        << id;
  }
}

}  // namespace
}  // namespace wym
