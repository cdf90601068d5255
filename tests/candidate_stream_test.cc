// Candidate-generation tier tests: inverted-index invariants,
// fingerprint short-circuit, thread-count / SIMD determinism of the
// streaming blocker, LSH recall against the exhaustive scan, and the
// two-raw-tables MatchTables path.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "blocking/candidate_stream.h"
#include "blocking/fingerprint.h"
#include "blocking/inverted_index.h"
#include "blocking/lsh.h"
#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/catalog.h"
#include "data/corruption.h"
#include "data/split.h"
#include "la/kernels.h"
#include "obs/metrics.h"
#include "util/random.h"
#include "util/thread_pool.h"

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

/// Two corrupted views of one synthetic catalog; row i of either table
/// has ground-truth identity i.
struct TablePair {
  EntityTable left, right;
  std::vector<size_t> ids;
};

TablePair MakeCorruptedPair(size_t rows, uint64_t seed) {
  Rng rng(seed);
  const data::Schema schema = data::DomainSchema(data::Domain::kProduct);
  const auto catalog = data::GenerateCatalog(data::Domain::kProduct, rows, &rng);
  data::CorruptionProfile profile;
  TablePair out;
  out.left.schema = schema;
  out.right.schema = schema;
  for (size_t i = 0; i < catalog.size(); ++i) {
    data::Entity base;
    base.values = catalog[i].values;
    out.left.rows.push_back(data::CorruptEntity(base, schema, profile, &rng));
    out.right.rows.push_back(data::CorruptEntity(base, schema, profile, &rng));
    out.ids.push_back(i);
  }
  return out;
}

std::set<std::string> RowTokenSet(const data::Entity& row,
                                  const text::Tokenizer& tokenizer) {
  std::set<std::string> tokens;
  for (const auto& value : row.values) {
    for (auto& token : tokenizer.Tokenize(value)) {
      tokens.insert(std::move(token));
    }
  }
  return tokens;
}

/// The token stage, reimplemented naively: the exact-duplicate rule,
/// then an exhaustive probe over full posting lists, no prefix filter,
/// no early exit. CandidateStream without an encoder must reproduce
/// this list exactly.
std::vector<CandidatePair> ReferenceTokenCandidates(
    const EntityTable& left, const EntityTable& right,
    const TokenStageOptions& options) {
  const text::Tokenizer tokenizer;
  std::vector<std::set<std::string>> right_tokens(right.size());
  std::map<std::string, size_t> df;
  // Keyed by the whole token set, so rows made only of stop tokens are
  // found too.
  std::map<std::set<std::string>, std::vector<size_t>> rows_by_token_set;
  for (size_t r = 0; r < right.size(); ++r) {
    right_tokens[r] = RowTokenSet(right.rows[r], tokenizer);
    for (const auto& token : right_tokens[r]) ++df[token];
    rows_by_token_set[right_tokens[r]].push_back(r);
  }
  const size_t stop_count = static_cast<size_t>(
      options.max_token_frequency * static_cast<double>(right.size()));

  std::vector<CandidatePair> out;
  for (size_t l = 0; l < left.size(); ++l) {
    const std::set<std::string> tokens = RowTokenSet(left.rows[l], tokenizer);
    // Duplicate rule: the right rows with exactly this token set, in
    // ascending order at score 1.0, uncapped, and nothing else.
    const auto dup = rows_by_token_set.find(tokens);
    if (!tokens.empty() && dup != rows_by_token_set.end()) {
      for (const size_t r : dup->second) out.push_back({l, r, 1.0});
      continue;
    }
    std::map<size_t, size_t> shared_counts;
    for (const auto& token : tokens) {
      auto it = df.find(token);
      if (it == df.end()) continue;
      if (stop_count > 0 && it->second > stop_count) continue;
      for (size_t r = 0; r < right.size(); ++r) {
        if (right_tokens[r].count(token)) ++shared_counts[r];
      }
    }
    std::vector<CandidatePair> row_candidates;
    for (const auto& [r, shared] : shared_counts) {
      if (shared < options.min_shared_tokens) continue;
      size_t full_shared = 0;
      for (const auto& token : tokens) {
        full_shared += right_tokens[r].count(token);
      }
      const size_t unioned =
          tokens.size() + right_tokens[r].size() - full_shared;
      const double jaccard = unioned == 0 ? 0.0
                                          : static_cast<double>(full_shared) /
                                                static_cast<double>(unioned);
      if (jaccard < options.min_jaccard) continue;
      row_candidates.push_back({l, r, jaccard});
    }
    std::sort(row_candidates.begin(), row_candidates.end(),
              [](const CandidatePair& a, const CandidatePair& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.right_row < b.right_row;
              });
    if (options.max_candidates_per_row > 0 &&
        row_candidates.size() > options.max_candidates_per_row) {
      row_candidates.resize(options.max_candidates_per_row);
    }
    out.insert(out.end(), row_candidates.begin(), row_candidates.end());
  }
  return out;
}

void ExpectSameCandidates(const std::vector<CandidatePair>& a,
                          const std::vector<CandidatePair>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].left_row, b[i].left_row) << "at " << i;
    EXPECT_EQ(a[i].right_row, b[i].right_row) << "at " << i;
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score) << "at " << i;
  }
}

TEST(ShardedInvertedIndexTest, BuildsConsistentCsr) {
  const EntityTable table = MakeTable({{"digital camera x100", "sony"},
                                       {"wireless router r7", "netgear"},
                                       {"digital frame", "sony"}});
  const text::Tokenizer tokenizer;
  ShardedInvertedIndex index;
  index.Build(table, tokenizer, /*stop_fraction=*/1.0);

  ASSERT_TRUE(index.built());
  EXPECT_EQ(index.rows(), 3u);
  EXPECT_TRUE(index.DebugValidate());

  // Vocabulary is sorted, ids round-trip, and df matches the data.
  for (uint32_t id = 0; id + 1 < index.vocab_size(); ++id) {
    EXPECT_LT(index.Token(id), index.Token(id + 1));
  }
  const uint32_t digital = index.TokenId("digital");
  ASSERT_NE(digital, ShardedInvertedIndex::kNoToken);
  EXPECT_EQ(index.Df(digital), 2u);
  size_t count = 0;
  const uint32_t* postings = index.Postings(digital, &count);
  ASSERT_EQ(count, 2u);
  EXPECT_EQ(postings[0], 0u);
  EXPECT_EQ(postings[1], 2u);
  EXPECT_EQ(index.TokenId("nonexistent"), ShardedInvertedIndex::kNoToken);

  // Row CSR: sorted unique ids, equal to the row's sorted token set.
  const uint32_t* row0 = index.RowTokens(0, &count);
  ASSERT_EQ(count, 4u);
  for (size_t i = 0; i + 1 < count; ++i) EXPECT_LT(row0[i], row0[i + 1]);
  EXPECT_EQ(index.RowTokenCount(1), 4u);
}

TEST(ShardedInvertedIndexTest, StopTokensFollowSeedRule) {
  // "common" in 3/4 rows; stop threshold floor(0.5 * 4) = 2 -> stop.
  const EntityTable table = MakeTable({{"common aa", "x"},
                                       {"common bb", "x"},
                                       {"common cc", "y"},
                                       {"dd", "y"}});
  const text::Tokenizer tokenizer;
  ShardedInvertedIndex index;
  index.Build(table, tokenizer, /*stop_fraction=*/0.5);
  EXPECT_EQ(index.stop_df(), 2u);
  EXPECT_TRUE(index.IsStop(index.TokenId("common")));  // df 3 > 2.
  EXPECT_FALSE(index.IsStop(index.TokenId("x")));      // df 2 is not > 2.
  EXPECT_FALSE(index.IsStop(index.TokenId("aa")));

  // A stop fraction yielding floor 0 disables pruning entirely.
  ShardedInvertedIndex tiny;
  tiny.Build(MakeTable({{"a a", "b"}}), tokenizer, /*stop_fraction=*/0.25);
  EXPECT_EQ(tiny.stop_df(), 0u);
  EXPECT_FALSE(tiny.IsStop(tiny.TokenId("a")));
}

TEST(ShardedInvertedIndexTest, IdenticalAtEveryThreadCount) {
  const TablePair pair = MakeCorruptedPair(120, 21);
  const text::Tokenizer tokenizer;
  util::ThreadPool pool1(1), pool8(8);
  ShardedInvertedIndex a, b;
  a.Build(pair.right, tokenizer, 0.25, &pool1);
  b.Build(pair.right, tokenizer, 0.25, &pool8);

  ASSERT_EQ(a.vocab_size(), b.vocab_size());
  ASSERT_EQ(a.rows(), b.rows());
  for (uint32_t id = 0; id < a.vocab_size(); ++id) {
    ASSERT_EQ(a.Token(id), b.Token(id));
    size_t ca = 0, cb = 0;
    const uint32_t* pa = a.Postings(id, &ca);
    const uint32_t* pb = b.Postings(id, &cb);
    ASSERT_EQ(ca, cb);
    EXPECT_TRUE(std::equal(pa, pa + ca, pb));
  }
  EXPECT_TRUE(a.DebugValidate());
  EXPECT_TRUE(b.DebugValidate());
}

TEST(ShardedInvertedIndexDeathTest, RejectsNegativeStopFraction) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const TablePair pair = MakeCorruptedPair(1000, 2);
  const text::Tokenizer tokenizer;
  ShardedInvertedIndex index;
  EXPECT_DEATH(index.Build(pair.right, tokenizer, -0.01), "stop_fraction");
}

TEST(FingerprintTest, HashesSortedTokenSets) {
  const uint64_t fp = FingerprintTokens({"camera", "digital", "x100"});
  EXPECT_EQ(fp, FingerprintTokens({"camera", "digital", "x100"}));
  EXPECT_NE(fp, FingerprintTokens({"camera", "digital"}));
  // The separator keeps token boundaries: {"ab","c"} != {"a","bc"}.
  EXPECT_NE(FingerprintTokens({"ab", "c"}), FingerprintTokens({"a", "bc"}));
}

TEST(FingerprintTest, IndexFindsEqualTokenSets) {
  const EntityTable table = MakeTable({{"digital camera x100", "sony"},
                                       {"x100 sony digital camera", ""},
                                       {"unrelated row", "ikea"}});
  const text::Tokenizer tokenizer;
  ShardedInvertedIndex index;
  index.Build(table, tokenizer, 1.0);
  FingerprintIndex fingerprints;
  fingerprints.Build(index);
  ASSERT_EQ(fingerprints.size(), 3u);

  // Rows 0 and 1 have the same token *set* (order/attribute-independent).
  std::vector<uint32_t> rows;
  fingerprints.Lookup(
      FingerprintTokens({"camera", "digital", "sony", "x100"}), &rows);
  EXPECT_EQ(rows, (std::vector<uint32_t>{0, 1}));
}

/// Overwrites right rows with exact duplicates of left rows: left row 0
/// into the last `copies` right rows, and every seventh left row into
/// the right row of the same index with its attribute values rotated
/// (same token set, different layout).
void PlantDuplicates(size_t copies, TablePair* pair) {
  const size_t n = pair->right.size();
  for (size_t r = n - copies; r < n; ++r) {
    pair->right.rows[r] = pair->left.rows[0];
  }
  for (size_t l = 7; l < n - copies; l += 7) {
    std::vector<std::string> values = pair->left.rows[l].values;
    std::rotate(values.begin(), values.begin() + 1, values.end());
    pair->right.rows[l].values = std::move(values);
  }
}

TEST(CandidateStreamTest, MatchesExhaustiveReferenceBlocker) {
  std::vector<TokenStageOptions> variants;
  for (const double min_jaccard : {0.15, 0.4}) {
    TokenStageOptions options;
    options.min_jaccard = min_jaccard;
    variants.push_back(options);
    TokenStageOptions shared2 = options;
    shared2.min_shared_tokens = 2;
    variants.push_back(shared2);
    TokenStageOptions no_stop = options;
    no_stop.max_token_frequency = 1.0;
    variants.push_back(no_stop);
    TokenStageOptions uncapped = options;
    uncapped.max_candidates_per_row = 0;
    variants.push_back(uncapped);
  }
  const struct {
    size_t rows;
    uint64_t seed;
  } tables[] = {{40, 3}, {80, 33}, {160, 71}};
  for (const auto& spec : tables) {
    for (const bool planted : {false, true}) {
      TablePair pair = MakeCorruptedPair(spec.rows, spec.seed);
      // Left row 0 gets more duplicates than the default per-row cap.
      const size_t copies = TokenStageOptions{}.max_candidates_per_row + 2;
      if (planted) PlantDuplicates(copies, &pair);
      for (const TokenStageOptions& token : variants) {
        SCOPED_TRACE(::testing::Message()
                     << "rows " << spec.rows << " seed " << spec.seed
                     << " planted " << planted << " min_jaccard "
                     << token.min_jaccard << " min_shared "
                     << token.min_shared_tokens << " max_freq "
                     << token.max_token_frequency << " cap "
                     << token.max_candidates_per_row);
        CandidateStreamOptions options;
        options.token = token;
        CandidateStream stream(pair.left, pair.right, options);
        const std::vector<CandidatePair> candidates = stream.Drain();
        ExpectSameCandidates(
            candidates, ReferenceTokenCandidates(pair.left, pair.right, token));
        if (planted) {
          // The short-circuit bypasses the cap: every copy is emitted.
          const size_t row0 = static_cast<size_t>(std::count_if(
              candidates.begin(), candidates.end(),
              [](const CandidatePair& c) { return c.left_row == 0; }));
          EXPECT_EQ(row0, copies);
        }
      }
    }
  }
}

TEST(CandidateStreamTest, ByteIdenticalAcrossThreadCounts) {
  const TablePair pair = MakeCorruptedPair(150, 5);
  embedding::SemanticEncoderOptions encoder_options;
  encoder_options.mode = embedding::EncoderMode::kPretrained;
  embedding::SemanticEncoder encoder(encoder_options);
  encoder.Fit({});

  CandidateStreamOptions options;
  options.encoder = &encoder;  // LSH stage on.

  util::ThreadPool pool1(1), pool8(8);
  CandidateStream stream1(pair.left, pair.right, options, &pool1);
  CandidateStream stream8(pair.left, pair.right, options, &pool8);
  const auto candidates1 = stream1.Drain();
  const auto candidates8 = stream8.Drain();
  EXPECT_FALSE(candidates1.empty());
  ExpectSameCandidates(candidates1, candidates8);
}

TEST(CandidateStreamTest, ByteIdenticalAcrossSimdLevels) {
  const TablePair pair = MakeCorruptedPair(60, 9);
  embedding::SemanticEncoderOptions encoder_options;
  encoder_options.mode = embedding::EncoderMode::kPretrained;
  embedding::SemanticEncoder encoder(encoder_options);
  encoder.Fit({});
  CandidateStreamOptions options;
  options.encoder = &encoder;

  const la::kernels::SimdLevel detected = la::kernels::DetectedSimdLevel();
  const la::kernels::SimdLevel previous = la::kernels::ActiveSimdLevel();
  std::vector<std::vector<CandidatePair>> per_level;
  for (int level = 0; level <= static_cast<int>(detected); ++level) {
    la::kernels::SetSimdLevel(static_cast<la::kernels::SimdLevel>(level));
    CandidateStream stream(pair.left, pair.right, options);
    per_level.push_back(stream.Drain());
  }
  la::kernels::SetSimdLevel(previous);
  for (size_t i = 1; i < per_level.size(); ++i) {
    ExpectSameCandidates(per_level[0], per_level[i]);
  }
}

TEST(CandidateStreamTest, ChunkedStreamEqualsDrain) {
  const TablePair pair = MakeCorruptedPair(50, 13);
  CandidateStreamOptions options;
  options.chunk_left_rows = 7;
  CandidateStream chunked(pair.left, pair.right, options);
  std::vector<CandidatePair> accumulated, chunk;
  size_t chunks = 0;
  while (chunked.Next(&chunk)) {
    // Chunks are ordered by left row and bounded by the chunk size.
    for (const auto& pair_out : chunk) {
      EXPECT_LT(pair_out.left_row, chunked.left_rows_consumed());
    }
    accumulated.insert(accumulated.end(), chunk.begin(), chunk.end());
    ++chunks;
  }
  EXPECT_EQ(chunks, (pair.left.size() + 6) / 7);
  EXPECT_EQ(chunked.left_rows_consumed(), pair.left.size());

  CandidateStream whole(pair.left, pair.right, CandidateStreamOptions{});
  ExpectSameCandidates(accumulated, whole.Drain());
}

TEST(CandidateStreamTest, ExactDuplicateShortCircuit) {
  // Left row 0's token set equals right row 1's (order scrambled);
  // left row 1 matches nothing exactly.
  const EntityTable left = MakeTable({{"x100 digital camera", "sony"},
                                      {"wireless router r7", "netgear"}});
  const EntityTable right = MakeTable({{"oak dining table", "ikea"},
                                       {"sony camera digital x100", ""},
                                       {"wireless router r9", "netgear"}});
  obs::Counter& dupes =
      obs::Registry::Global().GetCounter("blocking.exact_dupes");
  const uint64_t dupes_before = dupes.Value();

  CandidateStream stream(left, right);
  const auto candidates = stream.Drain();

  // Row 0 short-circuits to exactly its duplicate at score 1.0.
  std::vector<CandidatePair> row0;
  for (const auto& c : candidates) {
    if (c.left_row == 0) row0.push_back(c);
  }
  ASSERT_EQ(row0.size(), 1u);
  EXPECT_EQ(row0[0].right_row, 1u);
  EXPECT_DOUBLE_EQ(row0[0].score, 1.0);
  // Row 1 still goes through the token probe.
  bool found_row1 = false;
  for (const auto& c : candidates) {
    if (c.left_row == 1 && c.right_row == 2) found_row1 = true;
  }
  EXPECT_TRUE(found_row1);
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(dupes.Value(), dupes_before + 1);
  }
}

TEST(CandidateStreamDeathTest, RejectsNanMinJaccard) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const EntityTable table = MakeTable({{"digital camera", "sony"}});
  CandidateStreamOptions options;
  options.token.min_jaccard = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(CandidateStream(table, table, options), "min_jaccard");
}

TEST(EmbeddingLshTest, RecallAgainstExhaustiveScan) {
  const TablePair pair = MakeCorruptedPair(100, 17);
  embedding::SemanticEncoderOptions encoder_options;
  encoder_options.mode = embedding::EncoderMode::kPretrained;
  embedding::SemanticEncoder encoder(encoder_options);
  encoder.Fit({});
  const text::Tokenizer tokenizer;

  EmbeddingLsh lsh(&encoder);  // Default options.
  lsh.Build(pair.right, tokenizer);

  // Exhaustive reference: all pooled cosines, same filter + top-k.
  const EmbeddingLshOptions defaults;
  std::vector<la::Vec> right_pool(pair.right.size());
  for (size_t r = 0; r < pair.right.size(); ++r) {
    right_pool[r] = lsh.PoolRow(pair.right.rows[r], tokenizer);
  }
  size_t reference_pairs = 0, recovered = 0;
  for (size_t l = 0; l < pair.left.size(); ++l) {
    const la::Vec pooled = lsh.PoolRow(pair.left.rows[l], tokenizer);
    if (pooled.empty()) continue;
    std::vector<CandidatePair> exact;
    for (size_t r = 0; r < pair.right.size(); ++r) {
      if (right_pool[r].empty()) continue;
      const double cosine = la::kernels::Dot(pooled.data(),
                                             right_pool[r].data(),
                                             pooled.size());
      if (cosine < defaults.min_cosine) continue;
      exact.push_back({l, r, cosine});
    }
    std::sort(exact.begin(), exact.end(),
              [](const CandidatePair& a, const CandidatePair& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.right_row < b.right_row;
              });
    if (exact.size() > defaults.k) exact.resize(defaults.k);

    std::vector<CandidatePair> approx;
    lsh.Probe(l, pooled, &approx);
    std::set<size_t> approx_rows;
    for (const auto& c : approx) approx_rows.insert(c.right_row);
    for (const auto& c : exact) {
      ++reference_pairs;
      recovered += approx_rows.count(c.right_row);
    }
  }
  ASSERT_GT(reference_pairs, 0u);
  EXPECT_GE(static_cast<double>(recovered) /
                static_cast<double>(reference_pairs),
            0.95);
}

TEST(MatchTablesTest, StreamsRankedMatchesEndToEnd) {
  const data::Dataset dataset = data::GenerateById("S-FZ", 42, 0.5);
  const data::Split split = data::DefaultSplit(dataset, 42);
  core::WymModel model;
  model.Fit(split.train, split.validation);

  // Two raw tables from the test split: matched records land on the
  // diagonal (identity i for row i of both tables).
  EntityTable left, right;
  left.schema = dataset.schema;
  right.schema = dataset.schema;
  std::vector<size_t> ids;
  for (const auto& record : split.test.records) {
    if (record.label != 1) continue;
    left.rows.push_back(record.left);
    right.rows.push_back(record.right);
    ids.push_back(ids.size());
    if (ids.size() >= 12) break;
  }
  ASSERT_GE(ids.size(), 6u);

  MatchTablesOptions options;
  options.batch_candidates = 8;  // Force several flush cycles.
  MatchTablesStats stats;
  const std::vector<TableMatch> matches =
      MatchTables(model, left, right, options, nullptr, &stats);

  EXPECT_GT(stats.candidates_scored, 0u);
  EXPECT_GE(matches.size(), ids.size() / 2);  // Most diagonals match.
  size_t diagonal = 0;
  for (size_t i = 0; i < matches.size(); ++i) {
    EXPECT_LT(matches[i].left_row, left.size());
    EXPECT_LT(matches[i].right_row, right.size());
    EXPECT_GE(matches[i].probability, options.min_probability);
    EXPECT_GT(matches[i].blocking_score, 0.0);
    if (i > 0) {
      EXPECT_LE(matches[i].probability, matches[i - 1].probability);
    }
    diagonal += matches[i].left_row == matches[i].right_row;
  }
  EXPECT_GE(diagonal, ids.size() / 2);

  // The same run through a model-free stream finds the diagonal too
  // (sanity that candidate generation, not the matcher, does recall).
  CandidateStreamOptions stream_options;
  stream_options.encoder = &model.encoder();
  CandidateStream stream(left, right, stream_options);
  EXPECT_GT(BlockingRecall(stream.Drain(), ids, ids), 0.8);
}

}  // namespace
}  // namespace wym::blocking
