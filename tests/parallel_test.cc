// Tests of the deterministic parallel runtime: the ThreadPool work
// queue, the fixed-chunk ParallelFor contract (coverage, exceptions,
// nesting, thread-count-independent chunk structure), and the end-to-end
// determinism guarantee — batch predictions and explanations are
// bit-identical on a 1-thread and an 8-thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/split.h"
#include "la/kernels.h"
#include "obs/metrics.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace wym {
namespace {

TEST(ThreadPoolTest, DrainsAllSubmittedTasksBeforeJoin) {
  std::atomic<int> counter{0};
  {
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // Destructor drains the queue and joins.
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SizeOneRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0u);  // No workers: Submit executes inline.
  bool ran = false;
  pool.Submit([&ran] { ran = true; });
  EXPECT_TRUE(ran);  // Immediately, on this thread.
}

// WYM_THREADS values are checked as strings only: no pool is built
// from an out-of-range count.
TEST(ThreadPoolTest, ThreadCountForParsesWymThreadsStrictly) {
  const size_t hw = util::ThreadPool::ThreadCountFor(nullptr);
  EXPECT_GE(hw, 1u);
  testing::internal::CaptureStderr();
  EXPECT_EQ(util::ThreadPool::ThreadCountFor("1"), 1u);
  EXPECT_EQ(util::ThreadPool::ThreadCountFor("8"), 8u);
  EXPECT_EQ(util::ThreadPool::ThreadCountFor("256"), 256u);
  EXPECT_EQ(util::ThreadPool::ThreadCountFor("0"), hw);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  // Malformed, above the ceiling or overflowing: hardware concurrency,
  // with one `wym:` line each.
  for (const char* bad : {"4x", "-2", "", " 4", "257",
                          "99999999999999999999999"}) {
    SCOPED_TRACE(bad);
    testing::internal::CaptureStderr();
    EXPECT_EQ(util::ThreadPool::ThreadCountFor(bad), hw);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.rfind("wym: ", 0), 0u) << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  }
}

TEST(ParallelForTest, GrainOneCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  util::ParallelFor(
      hits.size(), /*grain=*/1,
      [&](size_t begin, size_t end, size_t chunk) {
        EXPECT_EQ(begin, chunk);  // grain=1: chunk index == element index.
        EXPECT_EQ(end, begin + 1);
        hits[begin].fetch_add(1);
      },
      &pool);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ZeroIterationsNeverInvokes) {
  util::ThreadPool pool(4);
  bool invoked = false;
  util::ParallelFor(
      0, 16, [&](size_t, size_t, size_t) { invoked = true; }, &pool);
  EXPECT_FALSE(invoked);
}

TEST(ParallelForTest, NumChunksMatchesChunkStructure) {
  EXPECT_EQ(util::NumChunks(0, 8), 0u);
  EXPECT_EQ(util::NumChunks(1, 8), 1u);
  EXPECT_EQ(util::NumChunks(8, 8), 1u);
  EXPECT_EQ(util::NumChunks(9, 8), 2u);
  EXPECT_EQ(util::NumChunks(100, 0), 100u);  // grain clamps to 1.
}

TEST(ParallelForTest, PropagatesException) {
  util::ThreadPool pool(4);
  EXPECT_THROW(
      util::ParallelFor(
          100, 10,
          [](size_t begin, size_t end, size_t) {
            if (begin <= 42 && 42 < end) throw std::runtime_error("boom");
          },
          &pool),
      std::runtime_error);
}

TEST(ParallelForTest, RethrowsLowestChunkException) {
  util::ThreadPool pool(4);
  try {
    util::ParallelFor(
        100, 10,
        [](size_t, size_t, size_t chunk) {
          if (chunk == 3 || chunk == 7) {
            throw std::runtime_error("chunk " + std::to_string(chunk));
          }
        },
        &pool);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 3");
  }
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  util::ThreadPool pool(4);
  std::atomic<int> counter{0};
  util::ParallelFor(
      8, 1,
      [&](size_t, size_t, size_t) {
        // A nested loop on the same (saturated) pool must not deadlock.
        util::ParallelFor(
            100, 10, [&](size_t b, size_t e, size_t) {
              counter.fetch_add(static_cast<int>(e - b));
            },
            &pool);
      },
      &pool);
  EXPECT_EQ(counter.load(), 800);
}

TEST(ParallelForTest, ChunkStructureIndependentOfThreadCount) {
  using Chunk = std::tuple<size_t, size_t, size_t>;
  auto chunks_with = [](util::ThreadPool* pool) {
    std::vector<Chunk> chunks(util::NumChunks(103, 8));
    util::ParallelFor(
        103, 8,
        [&](size_t begin, size_t end, size_t chunk) {
          chunks[chunk] = {begin, end, chunk};
        },
        pool);
    return chunks;
  };
  util::ThreadPool one(1), eight(8);
  EXPECT_EQ(chunks_with(&one), chunks_with(&eight));
}

// --- End-to-end determinism of the batch inference APIs ---

class BatchDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ =
        std::make_unique<data::Dataset>(data::GenerateById("S-FZ", 42, 0.25));
    split_ = std::make_unique<data::Split>(data::DefaultSplit(*dataset_, 42));
    model_ = std::make_unique<core::WymModel>();
    model_->Fit(split_->train, split_->validation);
  }
  static void TearDownTestSuite() {
    model_.reset();
    split_.reset();
    dataset_.reset();
  }

  static std::unique_ptr<data::Dataset> dataset_;
  static std::unique_ptr<data::Split> split_;
  static std::unique_ptr<core::WymModel> model_;
};

std::unique_ptr<data::Dataset> BatchDeterminismTest::dataset_;
std::unique_ptr<data::Split> BatchDeterminismTest::split_;
std::unique_ptr<core::WymModel> BatchDeterminismTest::model_;

TEST_F(BatchDeterminismTest, PredictProbaBatchBitIdenticalAcrossThreadCounts) {
  util::ThreadPool one(1), eight(8);
  const std::vector<double> p1 =
      model_->PredictProbaBatch(split_->test, nullptr, &one);
  const std::vector<double> p8 =
      model_->PredictProbaBatch(split_->test, nullptr, &eight);
  ASSERT_EQ(p1.size(), split_->test.size());
  ASSERT_EQ(p1.size(), p8.size());
  // Bit-identical, not approximately equal.
  EXPECT_EQ(std::memcmp(p1.data(), p8.data(), p1.size() * sizeof(double)), 0);

  // And identical to the sequential per-record API.
  for (size_t i = 0; i < p1.size(); ++i) {
    const double sequential = model_->PredictProba(split_->test.records[i]);
    EXPECT_EQ(std::memcmp(&p1[i], &sequential, sizeof(double)), 0);
  }
}

/// Asserts two explanations carry the same bits.
void ExpectSameExplanation(const core::Explanation& a,
                           const core::Explanation& b) {
  EXPECT_EQ(a.prediction, b.prediction);
  EXPECT_EQ(std::memcmp(&a.probability, &b.probability, sizeof(double)), 0);
  ASSERT_EQ(a.units.size(), b.units.size());
  for (size_t u = 0; u < a.units.size(); ++u) {
    EXPECT_EQ(std::memcmp(&a.units[u].relevance, &b.units[u].relevance,
                          sizeof(double)),
              0);
    EXPECT_EQ(
        std::memcmp(&a.units[u].impact, &b.units[u].impact, sizeof(double)),
        0);
    EXPECT_EQ(a.units[u].unit.left.token, b.units[u].unit.left.token);
    EXPECT_EQ(a.units[u].unit.right.token, b.units[u].unit.right.token);
  }
}

TEST_F(BatchDeterminismTest, ExplainBatchBitIdenticalAcrossThreadCounts) {
  util::ThreadPool one(1), eight(8);
  const std::vector<core::Explanation> e1 =
      model_->ExplainBatch(split_->test, nullptr, &one);
  const std::vector<core::Explanation> e8 =
      model_->ExplainBatch(split_->test, nullptr, &eight);
  ASSERT_EQ(e1.size(), split_->test.size());
  ASSERT_EQ(e1.size(), e8.size());
  for (size_t i = 0; i < e1.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "record " << i);
    ExpectSameExplanation(e1[i], e8[i]);
  }
}

TEST_F(BatchDeterminismTest, ExplainBatchEqualsPerRecordExplain) {
  // Explain is the batch of one: the same record loop on a one-record
  // span, inline. Same bits as the record's slot in a pooled batch.
  util::ThreadPool four(4);
  const std::vector<core::Explanation> batch =
      model_->ExplainBatch(split_->test, nullptr, &four);
  ASSERT_EQ(batch.size(), split_->test.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "record " << i);
    ExpectSameExplanation(batch[i],
                          model_->Explain(split_->test.records[i]));
  }
}

TEST_F(BatchDeterminismTest, EntityRunsMatchPerRecordCalls) {
  // The record loop reuses a prepared entity when a record repeats the
  // previous record's values on that side, as candidate lists do. Build
  // such runs, some longer than a 16-record chunk, plus look-alikes
  // whose flat token lists agree but whose tokens sit in different
  // attributes: those must be prepared afresh.
  const std::vector<data::EmRecord>& test = split_->test.records;
  ASSERT_GE(test.size(), 24u);
  std::vector<data::EmRecord> batch;
  for (size_t j = 0; j < 20; ++j) {  // One left entity, many rights.
    batch.push_back({test[0].left, test[j + 1].right, 0});
  }
  for (size_t j = 0; j < 7; ++j) {  // Many lefts, one right entity.
    batch.push_back({test[j + 2].left, test[3].right, 0});
  }
  for (size_t j = 0; j < 4; ++j) {  // A pair repeated whole.
    batch.push_back(test[5]);
  }
  const size_t width = split_->test.schema.size();
  ASSERT_GE(width, 2u);
  for (size_t j = 0; j < 6; ++j) {
    // Look-alikes: attribute 0 and 1 joined into attribute 0, then the
    // original split, on the left and then on the right.
    data::EmRecord original = test[j + 6];
    data::EmRecord joined = original;
    joined.left.values[0] += " " + joined.left.values[1];
    joined.left.values[1].clear();
    batch.push_back(joined);
    batch.push_back(original);
    joined = original;
    joined.right.values[1] = joined.right.values[0] + " " +
                             joined.right.values[1];
    joined.right.values[0].clear();
    batch.push_back(joined);
    batch.push_back(original);
  }

  std::vector<double> expected_probas;
  std::vector<core::Explanation> expected;
  for (const data::EmRecord& record : batch) {
    expected_probas.push_back(model_->PredictProba(record));
    expected.push_back(model_->Explain(record));
  }

  // Reference stage counts. A side is reused when it repeats the
  // previous record's values inside the same 16-record chunk. Every
  // token sits in at least one unit (unit cover), so a record's tokens
  // are the distinct (side, position) pairs its units reference.
  core::PredictionReport::Stages want;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (i % 16 != 0) {
      want.entity_reuses += batch[i].left.values == batch[i - 1].left.values;
      want.entity_reuses +=
          batch[i].right.values == batch[i - 1].right.values;
    }
    std::set<std::pair<int, size_t>> tokens;
    for (const core::ExplainedUnit& explained : expected[i].units) {
      const core::DecisionUnit& unit = explained.unit;
      ++want.units;
      if (unit.paired) {
        ++want.paired_units;
        tokens.insert({0, unit.left.position});
        tokens.insert({1, unit.right.position});
      } else {
        tokens.insert({unit.unpaired_side == core::Side::kLeft ? 0 : 1,
                       unit.UnpairedToken().position});
      }
    }
    want.tokens += tokens.size();
  }
  ASSERT_GT(want.entity_reuses, 0u);

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    util::ThreadPool pool(threads);
    core::PredictionReport predict_report, explain_report;
    const std::vector<double> probas =
        model_->PredictProbaBatch(batch, &predict_report, &pool);
    const std::vector<core::Explanation> explained =
        model_->ExplainBatch(batch, &explain_report, &pool);
    ASSERT_EQ(probas.size(), batch.size());
    ASSERT_EQ(explained.size(), batch.size());
    for (const core::PredictionReport* report :
         {&predict_report, &explain_report}) {
      const core::PredictionReport::Stages& got = report->stages;
      EXPECT_EQ(got.entity_reuses, want.entity_reuses);
      EXPECT_EQ(got.tokens, want.tokens);
      EXPECT_EQ(got.units, want.units);
      EXPECT_EQ(got.paired_units, want.paired_units);
    }
    // Bit-identical, not approximately equal.
    EXPECT_EQ(std::memcmp(probas.data(), expected_probas.data(),
                          probas.size() * sizeof(double)),
              0);
    for (size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "record " << i);
      ExpectSameExplanation(explained[i], expected[i]);
      for (size_t u = 0; u < expected[i].units.size(); ++u) {
        EXPECT_EQ(explained[i].units[u].unit.left.attribute,
                  expected[i].units[u].unit.left.attribute);
        EXPECT_EQ(explained[i].units[u].unit.right.attribute,
                  expected[i].units[u].unit.right.attribute);
      }
    }
  }
}

TEST_F(BatchDeterminismTest, ReportChangesNoResult) {
  // Asking for a report adds the stage clock and counters to the record
  // loop; predictions and explanations keep their bits.
  util::ThreadPool four(4);
  core::PredictionReport report;
  const std::vector<double> plain =
      model_->PredictProbaBatch(split_->test, nullptr, &four);
  const std::vector<double> reported =
      model_->PredictProbaBatch(split_->test, &report, &four);
  ASSERT_EQ(plain.size(), reported.size());
  EXPECT_EQ(
      std::memcmp(plain.data(), reported.data(), plain.size() * sizeof(double)),
      0);
  const std::vector<core::Explanation> explained_plain =
      model_->ExplainBatch(split_->test, nullptr, &four);
  const std::vector<core::Explanation> explained_reported =
      model_->ExplainBatch(split_->test, &report, &four);
  ASSERT_EQ(explained_plain.size(), explained_reported.size());
  for (size_t i = 0; i < explained_plain.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "record " << i);
    ExpectSameExplanation(explained_reported[i], explained_plain[i]);
  }
}

TEST_F(BatchDeterminismTest, StageTimesFollowTheMetricsSwitch) {
  // With metrics on (the default) every stage of an explaining batch
  // takes measurable time; with WYM_METRICS=0 the clock is never read.
  core::PredictionReport report;
  (void)model_->ExplainBatch(split_->test, &report);
  const core::PredictionReport::Stages& stages = report.stages;
  ASSERT_GT(stages.units, 0u);
  for (const std::uint64_t ns :
       {stages.encode_ns, stages.units_ns, stages.score_ns,
        stages.classify_ns, stages.impacts_ns}) {
    if (obs::MetricsEnabled()) {
      EXPECT_GT(ns, 0u);
    } else {
      EXPECT_EQ(ns, 0u);
    }
  }
  // A predict-only batch computes no impacts.
  (void)model_->PredictProbaBatch(split_->test, &report);
  EXPECT_EQ(report.stages.impacts_ns, 0u);
}

TEST_F(BatchDeterminismTest,
       PredictProbaBatchBitIdenticalAcrossSimdLevelsAndThreadCounts) {
  // The determinism guarantee spans both axes: every {SIMD level} x
  // {thread count} combination must produce the same bits.
  using la::kernels::SimdLevel;
  const SimdLevel ambient = la::kernels::ActiveSimdLevel();
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (la::kernels::DetectedSimdLevel() != SimdLevel::kScalar) {
    levels.push_back(la::kernels::DetectedSimdLevel());
  }

  util::ThreadPool one(1), eight(8);
  std::vector<std::vector<double>> runs;
  for (SimdLevel level : levels) {
    la::kernels::SetSimdLevel(level);
    runs.push_back(model_->PredictProbaBatch(split_->test, nullptr, &one));
    runs.push_back(
        model_->PredictProbaBatch(split_->test, nullptr, &eight));
  }
  la::kernels::SetSimdLevel(ambient);

  ASSERT_EQ(runs.front().size(), split_->test.size());
  for (size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs.front().size());
    EXPECT_EQ(std::memcmp(runs[r].data(), runs.front().data(),
                          runs.front().size() * sizeof(double)),
              0)
        << "run " << r << " diverged from the scalar 1-thread reference";
  }
}

}  // namespace
}  // namespace wym
