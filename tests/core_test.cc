#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "core/decision_unit.h"
#include "core/explainable_matcher.h"
#include "core/feature_extractor.h"
#include "core/relevance_scorer.h"
#include "core/tokenized_record.h"
#include "core/unit_generator.h"
#include "data/benchmark_gen.h"
#include "embedding/semantic_encoder.h"
#include "la/kernels.h"
#include "la/vector_ops.h"
#include "text/string_metrics.h"
#include "text/tokenizer.h"
#include "util/random.h"

namespace wym::core {
namespace {

const text::Tokenizer& TestTokenizer() {
  static const text::Tokenizer tokenizer{};
  return tokenizer;
}

embedding::SemanticEncoder MakeEncoder(
    const std::vector<std::vector<std::string>>& corpus) {
  embedding::SemanticEncoderOptions options;
  options.mode = embedding::EncoderMode::kFineTuned;
  options.hash_dim = 24;
  options.cooc_dim = 8;
  options.numeric_dims = 6;
  embedding::SemanticEncoder encoder(options);
  encoder.Fit(corpus);
  return encoder;
}

TokenizedRecord MakeRecord(const data::Schema& schema,
                           std::vector<std::string> left_values,
                           std::vector<std::string> right_values,
                           int label,
                           const embedding::SemanticEncoder& encoder) {
  data::EmRecord record;
  record.left.values = std::move(left_values);
  record.right.values = std::move(right_values);
  record.label = label;
  TokenizedRecord tokenized = TokenizeRecord(record, schema, TestTokenizer());
  EncodeEntity(encoder, &tokenized.left);
  EncodeEntity(encoder, &tokenized.right);
  tokenized.label = label;
  return tokenized;
}

// ---------------------------------------------------------------------
// Decision unit & tokenization basics.
// ---------------------------------------------------------------------

TEST(DecisionUnitTest, Labels) {
  DecisionUnit paired;
  paired.paired = true;
  paired.left.token = "exch";
  paired.right.token = "exch";
  EXPECT_EQ(paired.Label(), "(exch, exch)");

  DecisionUnit unpaired;
  unpaired.paired = false;
  unpaired.unpaired_side = Side::kRight;
  unpaired.right.token = "eng";
  EXPECT_EQ(unpaired.Label(), "(eng)");
}

TEST(DecisionUnitTest, AnchorAttribute) {
  DecisionUnit unit;
  unit.paired = true;
  unit.left.attribute = 2;
  unit.right.attribute = 0;
  EXPECT_EQ(unit.AnchorAttribute(), 2u);
  unit.paired = false;
  unit.unpaired_side = Side::kRight;
  EXPECT_EQ(unit.AnchorAttribute(), 0u);
}

TEST(TokenizedRecordTest, AttributeBookkeeping) {
  const data::Schema schema{{"name", "brand"}};
  data::Entity entity;
  entity.values = {"digital camera", "sony"};
  const TokenizedEntity tokenized =
      TokenizeEntity(entity, schema, TestTokenizer());
  ASSERT_EQ(tokenized.tokens.size(), 3u);
  EXPECT_EQ(tokenized.attribute_of[0], 0u);
  EXPECT_EQ(tokenized.attribute_of[2], 1u);
  EXPECT_EQ(tokenized.TokensOfAttribute(0).size(), 2u);
  EXPECT_EQ(tokenized.TokensOfAttribute(1).size(), 1u);
}

// ---------------------------------------------------------------------
// Algorithm 1: DecisionUnitDiscovery.
// ---------------------------------------------------------------------

class UnitGeneratorTest : public ::testing::Test {
 protected:
  UnitGeneratorTest()
      : schema_{{"name", "brand"}},
        encoder_(MakeEncoder({{"digital", "camera", "sony"},
                              {"digital", "lens", "nikon"}})) {}

  data::Schema schema_;
  embedding::SemanticEncoder encoder_;
};

TEST_F(UnitGeneratorTest, IdenticalDescriptionsFullyPair) {
  const TokenizedRecord record = MakeRecord(
      schema_, {"digital camera", "sony"}, {"digital camera", "sony"}, 1,
      encoder_);
  const DecisionUnitGenerator generator;
  const auto units =
      generator.Generate(record.left, record.right, schema_.size());
  size_t paired = 0;
  for (const auto& unit : units) paired += unit.paired;
  EXPECT_EQ(paired, 3u);
  EXPECT_EQ(units.size(), 3u);  // No unpaired leftovers.
  EXPECT_TRUE(CheckUnitConstraints(units, record.left, record.right));
}

TEST_F(UnitGeneratorTest, DisjointDescriptionsAllUnpaired) {
  const TokenizedRecord record = MakeRecord(
      schema_, {"digital camera", "sony"}, {"wooden table", "ikea"}, 0,
      encoder_);
  UnitGeneratorOptions options;
  options.theta = 0.9;  // Nothing clears a 0.9 bar here.
  options.eta = 0.92;
  options.epsilon = 0.95;
  const DecisionUnitGenerator generator(options);
  const auto units =
      generator.Generate(record.left, record.right, schema_.size());
  for (const auto& unit : units) EXPECT_FALSE(unit.paired);
  EXPECT_EQ(units.size(), 6u);  // 3 left + 3 right tokens, all unpaired.
  EXPECT_TRUE(CheckUnitConstraints(units, record.left, record.right));
}

TEST_F(UnitGeneratorTest, InterAttributePhaseRescuesMisplacedValues) {
  // "sony" sits in the name on the left and in brand on the right:
  // phase 1 cannot pair it, phase 2 must.
  const TokenizedRecord record = MakeRecord(
      schema_, {"camera sony", ""}, {"camera", "sony"}, 1, encoder_);
  const DecisionUnitGenerator generator;
  const auto units =
      generator.Generate(record.left, record.right, schema_.size());
  bool found_inter = false;
  for (const auto& unit : units) {
    if (unit.paired && unit.left.token == "sony") {
      EXPECT_EQ(unit.phase, UnitPhase::kInterAttribute);
      EXPECT_EQ(unit.right.token, "sony");
      found_inter = true;
    }
  }
  EXPECT_TRUE(found_inter);
  EXPECT_TRUE(CheckUnitConstraints(units, record.left, record.right));
}

TEST_F(UnitGeneratorTest, OneToManyPhaseHandlesRepetitions) {
  // Left repeats "camera"; the right has one. The second left "camera"
  // can only pair through phase 3 against the already-paired right token.
  const TokenizedRecord record = MakeRecord(
      schema_, {"camera camera", "sony"}, {"camera", "sony"}, 1, encoder_);
  const DecisionUnitGenerator generator;
  const auto units =
      generator.Generate(record.left, record.right, schema_.size());
  size_t camera_pairs = 0;
  bool saw_one_to_many = false;
  for (const auto& unit : units) {
    if (unit.paired && unit.left.token == "camera") {
      ++camera_pairs;
      saw_one_to_many =
          saw_one_to_many || unit.phase == UnitPhase::kOneToMany;
    }
  }
  EXPECT_EQ(camera_pairs, 2u);
  EXPECT_TRUE(saw_one_to_many);
  EXPECT_TRUE(CheckUnitConstraints(units, record.left, record.right));
}

TEST_F(UnitGeneratorTest, JaroWinklerModeNeedsNoEmbeddings) {
  data::EmRecord raw;
  raw.left.values = {"digital camera", "sony"};
  raw.right.values = {"digitall camera", "sonny"};
  TokenizedRecord record =
      TokenizeRecord(raw, schema_, TestTokenizer());  // No encoding.
  UnitGeneratorOptions options;
  options.similarity = PairingSimilarity::kJaroWinkler;
  const DecisionUnitGenerator generator(options);
  const auto units =
      generator.Generate(record.left, record.right, schema_.size());
  size_t paired = 0;
  for (const auto& unit : units) paired += unit.paired;
  EXPECT_EQ(paired, 3u);  // Typos survive Jaro-Winkler at 0.6.
}

TEST_F(UnitGeneratorTest, RuleVetoesPairs) {
  const TokenizedRecord record = MakeRecord(
      schema_, {"camera dslra200w", "sony"}, {"camera dslra300w", "sony"},
      0, encoder_);
  // Sibling codes sit around cosine ~0.4 in the hash space; drop the
  // thresholds so the spurious pair forms without the rule.
  UnitGeneratorOptions options;
  options.theta = 0.35;
  options.eta = 0.4;
  options.epsilon = 0.45;
  const DecisionUnitGenerator unruled(options);
  options.rules.push_back(EqualProductCodeRule());
  const DecisionUnitGenerator ruled(options);

  auto count_code_pairs = [&](const DecisionUnitGenerator& generator) {
    size_t count = 0;
    for (const auto& unit :
         generator.Generate(record.left, record.right, schema_.size())) {
      if (unit.paired && unit.left.token == "dslra200w") ++count;
    }
    return count;
  };
  EXPECT_GT(count_code_pairs(unruled), 0u);  // Spurious sibling-code pair.
  EXPECT_EQ(count_code_pairs(ruled), 0u);    // Vetoed.
}

// The similarity matrix of both pairing modes against per-cell references.
class PairSimilarityMatrixTest : public UnitGeneratorTest {
 protected:
  TokenizedRecord CameraRecord() const {
    return MakeRecord(schema_, {"sony digital camera dslra200w", "sony"},
                      {"camera dslra300w digital", "sony"}, 0, encoder_);
  }
};

TEST_F(PairSimilarityMatrixTest, MatchesCellReferencesAndRuleVetoes) {
  const TokenizedRecord record = CameraRecord();
  const size_t n_left = record.left.size();
  const size_t n_right = record.right.size();
  ASSERT_GT(n_left * n_right, 0u);

  // kEmbedding: one kernel call over the encoder's unit rows equals the
  // cosine of the embeddings, cell by cell.
  const DecisionUnitGenerator embedding_generator;
  const la::Matrix embedding_sim =
      embedding_generator.PairSimilarityMatrix(record.left, record.right);
  ASSERT_EQ(embedding_sim.rows(), n_left);
  ASSERT_EQ(embedding_sim.cols(), n_right);
  for (size_t l = 0; l < n_left; ++l) {
    for (size_t r = 0; r < n_right; ++r) {
      const size_t dim = record.left.embedding_dim;
      const la::Vec left(record.left.Embedding(l),
                         record.left.Embedding(l) + dim);
      const la::Vec right(record.right.Embedding(r),
                          record.right.Embedding(r) + dim);
      EXPECT_NEAR(embedding_sim.Row(l)[r], la::Cosine(left, right), 1e-6)
          << "cell (" << l << ", " << r << ")";
    }
  }

  // kJaroWinkler: exactly the string metric.
  UnitGeneratorOptions jw_options;
  jw_options.similarity = PairingSimilarity::kJaroWinkler;
  const la::Matrix jw_sim = DecisionUnitGenerator(jw_options)
                                .PairSimilarityMatrix(record.left, record.right);
  for (size_t l = 0; l < n_left; ++l) {
    for (size_t r = 0; r < n_right; ++r) {
      EXPECT_EQ(jw_sim.Row(l)[r],
                text::JaroWinklerSimilarity(record.left.tokens[l],
                                            record.right.tokens[r]))
          << "cell (" << l << ", " << r << ")";
    }
  }

  // Vetoed cells are -1 in both modes; the rest keep their similarity.
  for (PairingSimilarity mode :
       {PairingSimilarity::kEmbedding, PairingSimilarity::kJaroWinkler}) {
    UnitGeneratorOptions ruled_options;
    ruled_options.similarity = mode;
    ruled_options.rules.push_back(EqualProductCodeRule());
    const la::Matrix ruled = DecisionUnitGenerator(ruled_options)
                                 .PairSimilarityMatrix(record.left, record.right);
    const la::Matrix& unruled =
        mode == PairingSimilarity::kEmbedding ? embedding_sim : jw_sim;
    size_t vetoed = 0;
    for (size_t l = 0; l < n_left; ++l) {
      for (size_t r = 0; r < n_right; ++r) {
        const bool veto =
            !EqualProductCodeRule()(record.left.tokens[l],
                                    record.right.tokens[r]);
        vetoed += veto;
        EXPECT_EQ(ruled.Row(l)[r], veto ? -1.0 : unruled.Row(l)[r])
            << "cell (" << l << ", " << r << ")";
      }
    }
    EXPECT_EQ(vetoed, 1u);  // dslra200w vs dslra300w.
  }
}

TEST_F(UnitGeneratorTest, ConstraintsHoldOnGeneratedBenchmark) {
  // Property sweep: the two §3.1.1 constraints hold on real records.
  const data::Dataset dataset = data::GenerateById("S-IA", 3, 0.2);
  std::vector<std::vector<std::string>> corpus;
  std::vector<TokenizedRecord> records;
  for (const auto& raw : dataset.records) {
    TokenizedRecord record =
        TokenizeRecord(raw, dataset.schema, TestTokenizer());
    corpus.push_back(record.left.tokens);
    corpus.push_back(record.right.tokens);
    records.push_back(std::move(record));
  }
  const embedding::SemanticEncoder encoder = MakeEncoder(corpus);
  const DecisionUnitGenerator generator;
  for (auto& record : records) {
    EncodeEntity(encoder, &record.left);
    EncodeEntity(encoder, &record.right);
    const auto units =
        generator.Generate(record.left, record.right, dataset.schema.size());
    EXPECT_TRUE(CheckUnitConstraints(units, record.left, record.right));
  }
}

// ---------------------------------------------------------------------
// Relevance scorer: Eq. 2 rules, symmetry (R3), cardinality (R5).
// ---------------------------------------------------------------------

TEST(RelevanceScorerTest, Eq2TargetRules) {
  RelevanceScorer scorer;  // alpha = 0.55, beta = 0.45.
  DecisionUnit paired;
  paired.paired = true;

  paired.similarity = 0.9;
  EXPECT_DOUBLE_EQ(scorer.RawTarget(paired, 1), 1.0);   // Consistent match.
  EXPECT_DOUBLE_EQ(scorer.RawTarget(paired, 0), 0.0);   // Neutralized (R1).
  paired.similarity = 0.1;
  EXPECT_DOUBLE_EQ(scorer.RawTarget(paired, 1), 0.0);   // Neutralized (R1).
  EXPECT_DOUBLE_EQ(scorer.RawTarget(paired, 0), -1.0);  // Consistent.

  DecisionUnit unpaired;
  unpaired.paired = false;
  EXPECT_DOUBLE_EQ(scorer.RawTarget(unpaired, 1), 0.0);
  EXPECT_DOUBLE_EQ(scorer.RawTarget(unpaired, 0), -1.0);
}

TEST(RelevanceScorerTest, FeaturesAreSymmetric) {
  const data::Schema schema{{"name"}};
  const auto encoder = MakeEncoder({{"alpha", "beta"}});
  const TokenizedRecord record =
      MakeRecord(schema, {"alpha"}, {"beta"}, 1, encoder);

  DecisionUnit forward;
  forward.paired = true;
  forward.left = {0, 0, "alpha"};
  forward.right = {0, 0, "beta"};

  // Swap the record sides to reverse the unit: features must not change
  // (requirement R3 — mean and |diff| are symmetric).
  TokenizedRecord reversed = record;
  std::swap(reversed.left, reversed.right);
  DecisionUnit backward;
  backward.paired = true;
  backward.left = {0, 0, "beta"};
  backward.right = {0, 0, "alpha"};

  const auto f = RelevanceScorer::UnitFeatures(record, forward);
  const auto g = RelevanceScorer::UnitFeatures(reversed, backward);
  ASSERT_EQ(f.size(), g.size());
  for (size_t i = 0; i < f.size(); ++i) {
    EXPECT_NEAR(f[i], g[i], 1e-9);
  }
}

TEST(RelevanceScorerTest, UnpairedUsesZeroEmbedding) {
  const data::Schema schema{{"name"}};
  const auto encoder = MakeEncoder({{"alpha"}});
  const TokenizedRecord record =
      MakeRecord(schema, {"alpha"}, {"alpha"}, 1, encoder);
  DecisionUnit unpaired;
  unpaired.paired = false;
  unpaired.unpaired_side = Side::kLeft;
  unpaired.left = {0, 0, "alpha"};

  const auto features = RelevanceScorer::UnitFeatures(record, unpaired);
  const size_t dim = record.left.embedding_dim;
  ASSERT_EQ(features.size(), 2 * dim);
  // mean = v/2 and |diff| = |v| must coincide up to factor 2 (R5).
  for (size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(2.0 * features[i],
                std::fabs(features[dim + i]) *
                    (features[i] >= 0 ? 1.0 : -1.0),
                1e-5);
  }
}

TEST(RelevanceScorerTest, NeuralScorerLearnsPairedVsUnpaired) {
  // Train on a corpus where paired units in matches are identical tokens
  // and non-matches carry unpaired tokens; the scorer must score paired
  // units above unpaired ones.
  const data::Schema schema{{"name", "brand"}};
  std::vector<std::vector<std::string>> corpus = {
      {"digital", "camera", "sony"}, {"wireless", "router", "netgear"}};
  const auto encoder = MakeEncoder(corpus);

  std::vector<TokenizedRecord> records;
  std::vector<std::vector<DecisionUnit>> units;
  const DecisionUnitGenerator generator;
  for (int i = 0; i < 30; ++i) {
    records.push_back(MakeRecord(schema, {"digital camera", "sony"},
                                 {"digital camera", "sony"}, 1, encoder));
    records.push_back(MakeRecord(schema, {"digital camera", "sony"},
                                 {"wireless router", "netgear"}, 0,
                                 encoder));
  }
  for (const auto& record : records) {
    units.push_back(
        generator.Generate(record.left, record.right, schema.size()));
  }
  RelevanceScorerOptions options;
  options.mlp.epochs = 30;
  RelevanceScorer scorer(options);
  scorer.Fit(records, units);

  const auto scores = scorer.Score(records[0], units[0]);
  const auto non_match_scores = scorer.Score(records[1], units[1]);
  // Paired identical units in the match score positive...
  for (size_t u = 0; u < units[0].size(); ++u) {
    if (units[0][u].paired) {
      EXPECT_GT(scores[u], 0.0);
    }
  }
  // ...and unpaired units in the non-match score negative.
  for (size_t u = 0; u < units[1].size(); ++u) {
    if (!units[1][u].paired) {
      EXPECT_LT(non_match_scores[u], 0.0);
    }
  }
}

TEST(RelevanceScorerTest, BatchedScoreBitIdenticalToPerUnitPredict) {
  // Score runs all units of a record through one batched PredictRows
  // pass; every score must equal the one-unit-at-a-time prediction on
  // the unit's feature row, at every SIMD level.
  using la::kernels::SimdLevel;
  const SimdLevel ambient = la::kernels::ActiveSimdLevel();
  const DecisionUnitGenerator generator;
  for (const char* id : {"S-FZ", "T-AB"}) {
    SCOPED_TRACE(id);
    const data::Dataset dataset = data::GenerateById(id, 5, 0.1);
    std::vector<std::vector<std::string>> corpus;
    std::vector<TokenizedRecord> records;
    for (const auto& raw : dataset.records) {
      TokenizedRecord record =
          TokenizeRecord(raw, dataset.schema, TestTokenizer());
      record.label = raw.label;
      corpus.push_back(record.left.tokens);
      corpus.push_back(record.right.tokens);
      records.push_back(std::move(record));
    }
    const embedding::SemanticEncoder encoder = MakeEncoder(corpus);
    std::vector<std::vector<DecisionUnit>> units;
    for (auto& record : records) {
      EncodeEntity(encoder, &record.left);
      EncodeEntity(encoder, &record.right);
      units.push_back(
          generator.Generate(record.left, record.right, dataset.schema.size()));
    }
    RelevanceScorerOptions options;
    options.mlp.epochs = 2;
    RelevanceScorer scorer(options);
    scorer.Fit(records, units);
    ASSERT_TRUE(scorer.mlp().fitted());

    size_t scored = 0;
    for (SimdLevel level :
         {SimdLevel::kScalar, la::kernels::DetectedSimdLevel()}) {
      la::kernels::SetSimdLevel(level);
      for (size_t r = 0; r < records.size(); r += 3) {
        const std::vector<double> scores = scorer.Score(records[r], units[r]);
        ASSERT_EQ(scores.size(), units[r].size());
        for (size_t u = 0; u < units[r].size(); ++u) {
          const double single = scorer.mlp().Predict(
              RelevanceScorer::UnitFeatures(records[r], units[r][u]));
          EXPECT_EQ(std::memcmp(&scores[u], &single, sizeof(double)), 0)
              << "record " << r << " unit " << u;
          ++scored;
        }
      }
    }
    EXPECT_GT(scored, 100u);
  }
  la::kernels::SetSimdLevel(ambient);
}

TEST(RelevanceScorerTest, BinaryAndCosineVariants) {
  const data::Schema schema{{"name"}};
  const auto encoder = MakeEncoder({{"a"}});
  const TokenizedRecord record = MakeRecord(schema, {"a"}, {"a"}, 1, encoder);
  std::vector<DecisionUnit> units(2);
  units[0].paired = true;
  units[0].similarity = 0.8;
  units[1].paired = false;

  RelevanceScorerOptions binary;
  binary.kind = ScorerKind::kBinary;
  RelevanceScorer binary_scorer(binary);
  binary_scorer.Fit({}, {});
  EXPECT_EQ(binary_scorer.Score(record, units),
            (std::vector<double>{1.0, -1.0}));

  RelevanceScorerOptions cosine;
  cosine.kind = ScorerKind::kCosine;
  RelevanceScorer cosine_scorer(cosine);
  cosine_scorer.Fit({}, {});
  const auto scores = cosine_scorer.Score(record, units);
  EXPECT_DOUBLE_EQ(scores[0], 0.8);
  EXPECT_LT(scores[1], 0.0);
}

// ---------------------------------------------------------------------
// Feature extractor + inverse transformation.
// ---------------------------------------------------------------------

ScoredUnitSet MakeScoredSet() {
  ScoredUnitSet set;
  auto add = [&](bool paired, size_t attr, double score) {
    DecisionUnit unit;
    unit.paired = paired;
    unit.left.attribute = attr;
    unit.right.attribute = attr;
    if (!paired) unit.unpaired_side = Side::kLeft;
    set.units.push_back(unit);
    set.scores.push_back(score);
  };
  add(true, 0, 0.8);
  add(true, 0, 0.4);
  add(false, 0, -0.9);
  add(true, 1, 0.1);
  add(false, 1, -0.5);
  return set;
}

TEST(FeatureExtractorTest, DimsAndNames) {
  const FeatureExtractor full(2, /*simplified=*/false);
  EXPECT_EQ(full.dim(), full.feature_names().size());
  EXPECT_EQ(full.dim(), 2 * 7 + 4 + 17u);
  const FeatureExtractor simplified(2, /*simplified=*/true);
  EXPECT_EQ(simplified.dim(), 6u);
}

TEST(FeatureExtractorTest, SimplifiedFeatureValues) {
  const FeatureExtractor extractor(2, /*simplified=*/true);
  ASSERT_EQ(extractor.dim(), 6u);
  std::vector<double> f(6);
  extractor.Compute(MakeScoredSet(), f);
  EXPECT_DOUBLE_EQ(f[0], 5.0);                          // all count.
  EXPECT_NEAR(f[1], (0.8 + 0.4 - 0.9 + 0.1 - 0.5) / 5, 1e-12);  // mean.
  EXPECT_DOUBLE_EQ(f[2], 3.0);                          // pos count.
  EXPECT_NEAR(f[3], (0.8 + 0.4 + 0.1) / 3, 1e-12);
  EXPECT_DOUBLE_EQ(f[4], 2.0);                          // neg count.
  EXPECT_NEAR(f[5], (-0.9 - 0.5) / 2, 1e-12);
}

TEST(FeatureExtractorTest, EmptySetIsAllZero) {
  const FeatureExtractor extractor(2, false);
  std::vector<double> f(extractor.dim(), 1.0);
  extractor.Compute({}, f);
  for (double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

/// Unit impacts of `set` when feature `feature` alone has coefficient 1:
/// unit u gets weight_{feature,u} x relevance_u / (the number of
/// features u contributes to).
std::vector<double> OneHotImpacts(const FeatureExtractor& extractor,
                                  const ScoredUnitSet& set, size_t feature) {
  std::vector<double> coefficients(extractor.dim(), 0.0);
  coefficients[feature] = 1.0;
  std::vector<double> row(extractor.dim()), impacts;
  extractor.Compute(set, row, coefficients, &impacts);
  return impacts;
}

size_t FeatureIndex(const FeatureExtractor& extractor,
                    const std::string& name) {
  const auto& names = extractor.feature_names();
  const auto it = std::find(names.begin(), names.end(), name);
  EXPECT_NE(it, names.end()) << name;
  return static_cast<size_t>(it - names.begin());
}

TEST(FeatureExtractorTest, AttributionWeightsAreInverse) {
  const FeatureExtractor extractor(2, /*simplified=*/true);
  const ScoredUnitSet set = MakeScoredSet();
  // Every unit contributes to 4 features: all_count and all_mean (1/5
  // each) and the count and mean of its sign group.
  const std::vector<double> count = OneHotImpacts(extractor, set, 0);
  const std::vector<double> mean = OneHotImpacts(extractor, set, 1);
  ASSERT_EQ(count.size(), set.size());
  ASSERT_EQ(mean.size(), set.size());
  for (size_t u = 0; u < set.size(); ++u) {
    // Count features use |relevance|, means the signed relevance.
    EXPECT_DOUBLE_EQ(count[u], 0.2 * std::abs(set.scores[u]) / 4);
    EXPECT_DOUBLE_EQ(mean[u], 0.2 * set.scores[u] / 4);
  }
}

TEST(FeatureExtractorTest, MinMaxAttachToAchievingUnit) {
  const FeatureExtractor extractor(1, /*simplified=*/false);
  ScoredUnitSet set;
  for (double score : {0.9, -0.7, 0.2}) {
    DecisionUnit unit;
    unit.paired = true;
    set.units.push_back(unit);
    set.scores.push_back(score);
  }
  // all_sum gives every unit weight 1, so a one-hot impact over the
  // all_sum one-hot impact is that feature's weight on the unit.
  const std::vector<double> sum =
      OneHotImpacts(extractor, set, FeatureIndex(extractor, "all_sum"));
  const std::vector<double> max =
      OneHotImpacts(extractor, set, FeatureIndex(extractor, "all_max"));
  const std::vector<double> min =
      OneHotImpacts(extractor, set, FeatureIndex(extractor, "all_min"));
  EXPECT_DOUBLE_EQ(max[0] / sum[0], 1.0);  // 0.9 achieves max.
  EXPECT_DOUBLE_EQ(max[1], 0.0);
  EXPECT_DOUBLE_EQ(max[2], 0.0);
  EXPECT_DOUBLE_EQ(min[1] / sum[1], 1.0);  // -0.7 achieves min.
  EXPECT_DOUBLE_EQ(min[0], 0.0);
  EXPECT_DOUBLE_EQ(min[2], 0.0);
}

// ---------------------------------------------------------------------
// Explainable matcher.
// ---------------------------------------------------------------------

TEST(ExplainableMatcherTest, LearnsAndExplains) {
  // Matches: many positive-scored paired units. Non-matches: negative
  // unpaired units.
  std::vector<ScoredUnitSet> train;
  std::vector<int> labels;
  Rng rng(5);
  for (int i = 0; i < 120; ++i) {
    const bool match = i % 2 == 0;
    ScoredUnitSet set;
    const size_t paired = match ? 5 : 1;
    const size_t unpaired = match ? 1 : 5;
    for (size_t u = 0; u < paired; ++u) {
      DecisionUnit unit;
      unit.paired = true;
      set.units.push_back(unit);
      set.scores.push_back(rng.Uniform(0.3, 0.9));
    }
    for (size_t u = 0; u < unpaired; ++u) {
      DecisionUnit unit;
      unit.paired = false;
      set.units.push_back(unit);
      set.scores.push_back(rng.Uniform(-0.9, -0.3));
    }
    train.push_back(std::move(set));
    labels.push_back(match ? 1 : 0);
  }

  ExplainableMatcher matcher(1, /*simplified=*/false);
  matcher.Fit(train, labels, {}, {});
  ASSERT_TRUE(matcher.fitted());
  EXPECT_GT(matcher.best_validation_f1(), 0.9);

  // In aggregate, the paired positive units push toward match and the
  // unpaired negative units toward non-match (individual units may pick
  // up small cross-terms from min/max features).
  const std::vector<double> impacts = matcher.UnitImpacts(train[0]);
  double paired_impact = 0.0, unpaired_impact = 0.0;
  for (size_t u = 0; u < train[0].size(); ++u) {
    (train[0].units[u].paired ? paired_impact : unpaired_impact) +=
        impacts[u];
  }
  EXPECT_GT(paired_impact, 0.0);
  EXPECT_LT(unpaired_impact, 0.0);
}

TEST(ExplainableMatcherTest, SingleClassifierSelection) {
  std::vector<ScoredUnitSet> train;
  std::vector<int> labels;
  for (int i = 0; i < 40; ++i) {
    ScoredUnitSet set;
    DecisionUnit unit;
    unit.paired = i % 2 == 0;
    set.units.push_back(unit);
    set.scores.push_back(i % 2 == 0 ? 0.8 : -0.8);
    train.push_back(std::move(set));
    labels.push_back(i % 2 == 0 ? 1 : 0);
  }
  ExplainableMatcherOptions options;
  options.classifier = "LR";
  ExplainableMatcher matcher(1, false, options);
  matcher.Fit(train, labels, {}, {});
  EXPECT_EQ(matcher.best_name(), "LR");
  EXPECT_EQ(matcher.pool().size(), 1u);
  EXPECT_GT(matcher.PredictProba(train[0]), 0.5);
  EXPECT_LT(matcher.PredictProba(train[1]), 0.5);
}

}  // namespace
}  // namespace wym::core
