#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "blocking/blocker.h"
#include "blocking/candidate_stream.h"
#include "data/catalog.h"
#include "data/corruption.h"
#include "embedding/semantic_encoder.h"
#include "util/random.h"

namespace wym::blocking {
namespace {

EntityTable MakeTable(std::vector<std::vector<std::string>> rows) {
  EntityTable table;
  table.schema = {{"name", "brand"}};
  for (auto& values : rows) {
    data::Entity entity;
    entity.values = std::move(values);
    table.rows.push_back(std::move(entity));
  }
  return table;
}

/// Token-stage candidates (no encoder, so no LSH stage).
std::vector<CandidatePair> TokenCandidates(const EntityTable& left,
                                           const EntityTable& right,
                                           const TokenStageOptions& token) {
  CandidateStreamOptions options;
  options.token = token;
  CandidateStream stream(left, right, options);
  return stream.Drain();
}

TEST(CandidateStreamTest, FindsOverlappingRows) {
  const EntityTable left = MakeTable({{"digital camera x100", "sony"},
                                      {"wireless router r7", "netgear"}});
  const EntityTable right = MakeTable({{"camera x100 digital", "sony"},
                                       {"oak dining table", "ikea"}});
  const auto candidates = TokenCandidates(left, right, {});
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].left_row, 0u);
  EXPECT_EQ(candidates[0].right_row, 0u);
  EXPECT_GT(candidates[0].score, 0.5);
}

TEST(CandidateStreamTest, MinJaccardFilters) {
  const EntityTable left = MakeTable({{"alpha beta gamma delta", "x"}});
  const EntityTable right = MakeTable({{"alpha zz yy ww vv uu", "q"}});
  TokenStageOptions options;
  options.min_jaccard = 0.5;
  EXPECT_TRUE(TokenCandidates(left, right, options).empty());
  options.min_jaccard = 0.05;
  EXPECT_EQ(TokenCandidates(left, right, options).size(), 1u);
}

TEST(CandidateStreamTest, CapsCandidatesPerRow) {
  EntityTable left = MakeTable({{"shared token here", "b"}});
  EntityTable right;
  right.schema = left.schema;
  for (int i = 0; i < 20; ++i) {
    data::Entity entity;
    entity.values = {"shared token here", "b" + std::to_string(i)};
    right.rows.push_back(entity);
  }
  TokenStageOptions options;
  options.max_candidates_per_row = 5;
  options.max_token_frequency = 1.0;  // Disable stop-token pruning.
  EXPECT_EQ(TokenCandidates(left, right, options).size(), 5u);
}

TEST(CandidateStreamTest, RecoversTypoedRow) {
  // "dgital camer x100" shares embedding mass with the clean row even
  // though key tokens are typo'd; the token stage alone, held to a
  // Jaccard it cannot reach, finds nothing.
  embedding::SemanticEncoderOptions encoder_options;
  encoder_options.mode = embedding::EncoderMode::kPretrained;
  embedding::SemanticEncoder encoder(encoder_options);
  encoder.Fit({});
  const EntityTable left = MakeTable({{"dgital camer x100", "sony"}});
  const EntityTable right = MakeTable({{"digital camera x100", "sony"},
                                       {"completely unrelated row", "zzz"}});
  CandidateStreamOptions options;
  options.token.min_jaccard = 0.5;
  options.lsh.k = 1;
  options.lsh.min_cosine = 0.3;
  EXPECT_TRUE(TokenCandidates(left, right, options.token).empty());

  options.encoder = &encoder;
  CandidateStream stream(left, right, options);
  const auto candidates = stream.Drain();
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].right_row, 0u);
}

TEST(BuildCandidateDatasetTest, LabelsFromIdentity) {
  const EntityTable left = MakeTable({{"a", "x"}, {"b", "y"}});
  const EntityTable right = MakeTable({{"a2", "x"}, {"c", "z"}});
  const std::vector<CandidatePair> pairs = {{0, 0, 1.0}, {1, 1, 1.0}};
  const data::Dataset dataset = BuildCandidateDataset(
      left, right, pairs, {7, 8}, {7, 9}, "test");
  ASSERT_EQ(dataset.size(), 2u);
  EXPECT_EQ(dataset.records[0].label, 1);  // Identity 7 == 7.
  EXPECT_EQ(dataset.records[1].label, 0);  // 8 != 9.
  EXPECT_EQ(dataset.records[0].left.values[0], "a");
  EXPECT_EQ(dataset.records[0].right.values[0], "a2");
}

TEST(BlockingRecallTest, CountsSurvivingMatches) {
  // Identities: left {1, 2}, right {1, 2}: two true matches.
  const std::vector<size_t> left_identity = {1, 2};
  const std::vector<size_t> right_identity = {1, 2};
  EXPECT_DOUBLE_EQ(
      BlockingRecall({{0, 0, 1.0}}, left_identity, right_identity), 0.5);
  EXPECT_DOUBLE_EQ(
      BlockingRecall({{0, 0, 1.0}, {1, 1, 1.0}}, left_identity,
                     right_identity),
      1.0);
  EXPECT_DOUBLE_EQ(BlockingRecall({}, {5}, {6}), 1.0);  // No true matches.
}

TEST(BlockingRecallTest, CountsRepeatedPairOnce) {
  EXPECT_DOUBLE_EQ(BlockingRecall({{0, 0, 1.0}, {0, 0, 0.5}}, {1}, {1}), 1.0);
  // A repeated pair cannot stand in for a missing one.
  EXPECT_DOUBLE_EQ(
      BlockingRecall({{0, 0, 1.0}, {0, 0, 0.5}}, {1, 2}, {1, 2}), 0.5);
}

TEST(BlockingIntegrationTest, HighRecallOnCorruptedCatalog) {
  Rng rng(4);
  const data::Schema schema = data::DomainSchema(data::Domain::kProduct);
  const auto catalog =
      data::GenerateCatalog(data::Domain::kProduct, 120, &rng);
  data::CorruptionProfile profile;
  EntityTable a{schema, {}}, b{schema, {}};
  std::vector<size_t> ids_a, ids_b;
  for (size_t i = 0; i < catalog.size(); ++i) {
    data::Entity base;
    base.values = catalog[i].values;
    a.rows.push_back(data::CorruptEntity(base, schema, profile, &rng));
    ids_a.push_back(i);
    b.rows.push_back(data::CorruptEntity(base, schema, profile, &rng));
    ids_b.push_back(i);
  }
  CandidateStream stream(a, b);
  const auto candidates = stream.Drain();
  EXPECT_GT(BlockingRecall(candidates, ids_a, ids_b), 0.9);
  // And it prunes: far fewer candidates than the cross product.
  EXPECT_LT(candidates.size(), a.size() * b.size() / 5);
}

}  // namespace
}  // namespace wym::blocking
