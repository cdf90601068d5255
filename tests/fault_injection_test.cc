// End-to-end robustness suite for the persistence stack: a trained
// model is saved once, then its file is subjected to hundreds of
// deterministic faults — truncations at stratified offsets, single-bit
// flips across the whole file, mid-write failures, ENOSPC, simulated
// crashes — via the wym::io::FaultInjector seam. The contract under
// test (DESIGN.md "Failure model & file-format v2"):
//
//   - Load of a damaged file ALWAYS returns Corruption/IoError. It
//     never aborts, never hangs, never returns OK on damaged bytes.
//   - A failed or crashed save never clobbers the previous good model.
//   - Legacy v1 files (unframed, no checksums) are rejected as Corruption.
//
// Run under scripts/check.sh's asan-ubsan configuration this doubles as
// a memory-safety sweep of every decode error path.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/csv.h"
#include "data/split.h"
#include "obs/metrics.h"
#include "util/framed_file.h"
#include "util/io.h"
#include "util/status.h"

namespace wym {
namespace {

/// The shared fixture: one small trained model (training dominates the
/// runtime; every fault case reuses the same trained pipeline).
struct Suite {
  data::Dataset dataset;
  data::Split split;
  core::WymModel model;
  std::string path;
  std::string clean_bytes;
  std::vector<double> clean_probas;
};

class FaultInjectionTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto s = std::make_unique<Suite>();
    s->dataset = data::GenerateById("S-FZ", 42, 0.3);
    s->split = data::DefaultSplit(s->dataset, 42);
    s->model.Fit(s->split.train, s->split.validation);

    // Per-process path: ctest runs each test of this suite as its own
    // process, possibly in parallel — a shared path would race the
    // saves (and their shared ".tmp" staging file) across processes.
    s->path = testing::TempDir() + "/wym_fault_model." +
              std::to_string(::getpid()) + ".wym";
    if (!s->model.SaveToFile(s->path).ok()) return;
    if (!io::ReadFileToString(s->path, &s->clean_bytes).ok()) return;
    if (s->clean_bytes.size() <= 100) return;
    s->clean_probas = s->model.PredictProbaBatch(s->split.test);
    suite_ = std::move(s);
  }

  static void TearDownTestSuite() {
    if (suite_ != nullptr) std::remove(suite_->path.c_str());
    suite_.reset();
  }

  void SetUp() override {
    ASSERT_NE(suite_, nullptr) << "shared fixture failed to build";
  }

  /// A load failure must be a *reported* failure of the right class.
  static void ExpectDamageDetected(const Status& status,
                                   const std::string& what) {
    EXPECT_FALSE(status.ok()) << what << ": damaged file loaded OK";
    EXPECT_TRUE(status.code() == Status::Code::kCorruption ||
                status.code() == Status::Code::kIoError)
        << what << ": unexpected status " << status.ToString();
  }

  static std::unique_ptr<Suite> suite_;
};

std::unique_ptr<Suite> FaultInjectionTest::suite_;

// ---------------------------------------------------------------------
// Corruption sweeps (>= 200 mutations total across the two tests)
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, TruncationSweepAlwaysDetected) {
  const size_t size = suite_->clean_bytes.size();
  // Stratified truncation points: every boundary-ish prefix plus 110
  // evenly spaced interior cuts — header, every frame, the trailer.
  std::vector<size_t> cuts = {0, 1, 2, 3, 4, 5, size - 1, size - 2};
  for (size_t i = 0; i < 110; ++i) cuts.push_back(1 + i * (size - 2) / 110);

  int swept = 0;
  for (const size_t cut : cuts) {
    io::FaultInjector injector;
    injector.ShortRead(cut);
    io::ScopedFaultInjector scope(&injector);
    const auto loaded = core::WymModel::LoadFromFile(suite_->path);
    ExpectDamageDetected(loaded.status(),
                         "truncated to " + std::to_string(cut) + " bytes");
    EXPECT_EQ(injector.faults_fired(), 1);
    ++swept;
  }
  EXPECT_GE(swept, 100);
}

TEST_F(FaultInjectionTest, BitFlipSweepAlwaysDetected) {
  const size_t bits = suite_->clean_bytes.size() * 8;
  int swept = 0;
  // 120 single-bit flips evenly spaced over the file: magic, version,
  // frame headers, payloads, CRC footers, trailer — every region.
  for (size_t i = 0; i < 120; ++i) {
    const size_t bit = i * (bits - 1) / 119;
    io::FaultInjector injector;
    injector.FlipBit(bit);
    io::ScopedFaultInjector scope(&injector);
    const auto loaded = core::WymModel::LoadFromFile(suite_->path);
    ExpectDamageDetected(loaded.status(),
                         "bit " + std::to_string(bit) + " flipped");
    ++swept;
  }
  EXPECT_GE(swept, 100);
}

TEST_F(FaultInjectionTest, CorruptFrameErrorNamesTheSection) {
  // Flip a payload bit inside the encoder frame specifically.
  const size_t frame_at = suite_->clean_bytes.find("FRAME encoder ");
  ASSERT_NE(frame_at, std::string::npos);
  const size_t payload_at = suite_->clean_bytes.find('\n', frame_at) + 10;
  ASSERT_LT(payload_at, suite_->clean_bytes.size());

  io::FaultInjector injector;
  injector.FlipBit(payload_at * 8);
  io::ScopedFaultInjector scope(&injector);
  const auto loaded = core::WymModel::LoadFromFile(suite_->path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
  EXPECT_NE(loaded.status().message().find("encoder"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(FaultInjectionTest, VerifyFileAgreesWithLoadOnDamage) {
  ASSERT_TRUE(core::WymModel::VerifyFile(suite_->path).ok());
  for (const size_t bit : {7u, 1000u, 20000u}) {
    if (bit >= suite_->clean_bytes.size() * 8) continue;
    io::FaultInjector injector;
    injector.FlipBit(bit);
    io::ScopedFaultInjector scope(&injector);
    std::string summary;
    const Status status = core::WymModel::VerifyFile(suite_->path, &summary);
    ExpectDamageDetected(status, "verify with bit " + std::to_string(bit));
  }
}

// ---------------------------------------------------------------------
// Atomic save: a failed write never clobbers the previous model
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, CrashMidSaveLeavesPreviousModelLoadable) {
  const std::string victim = testing::TempDir() + "/wym_fault_victim.wym";
  ASSERT_TRUE(suite_->model.SaveToFile(victim).ok());

  // Simulated kill -9 after 1000 bytes of the rewrite: no rename, the
  // partial temp file is abandoned on disk.
  io::FaultInjector injector;
  injector.CrashAt(1000);
  {
    io::ScopedFaultInjector scope(&injector);
    EXPECT_EQ(suite_->model.SaveToFile(victim).code(), Status::Code::kIoError);
  }
  EXPECT_EQ(injector.faults_fired(), 1);

  auto survivor = core::WymModel::LoadFromFile(victim);
  ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
  const std::vector<double> probas =
      survivor.value().PredictProbaBatch(suite_->split.test);
  ASSERT_EQ(probas.size(), suite_->clean_probas.size());
  for (size_t i = 0; i < probas.size(); ++i) {
    EXPECT_DOUBLE_EQ(probas[i], suite_->clean_probas[i]);
  }
  std::remove((victim + ".tmp").c_str());
  std::remove(victim.c_str());
}

TEST_F(FaultInjectionTest, FailedAndEnospcSavesLeaveNoDebris) {
  const std::string victim = testing::TempDir() + "/wym_fault_debris.wym";
  ASSERT_TRUE(suite_->model.SaveToFile(victim).ok());

  io::FaultInjector injector;
  injector.FailWriteAt(64).Enospc(128);
  {
    io::ScopedFaultInjector scope(&injector);
    EXPECT_EQ(suite_->model.SaveToFile(victim).code(), Status::Code::kIoError);
    const Status enospc = suite_->model.SaveToFile(victim);
    EXPECT_EQ(enospc.code(), Status::Code::kIoError);
    EXPECT_NE(enospc.message().find("space"), std::string::npos)
        << enospc.ToString();
  }
  EXPECT_EQ(injector.faults_fired(), 2);

  // Both failures cleaned up their temp file and left the target alone.
  std::string tmp_probe;
  EXPECT_FALSE(io::ReadFileToString(victim + ".tmp", &tmp_probe).ok());
  auto survivor = core::WymModel::LoadFromFile(victim);
  EXPECT_TRUE(survivor.ok()) << survivor.status().ToString();
  std::remove(victim.c_str());
}

// ---------------------------------------------------------------------
// Legacy v1 files
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, V1FileIsRejectedAsCorruption) {
  // The unframed v1 stream carried no checksums, so a damaged one could
  // not be told from a good one: both load and verify refuse it.
  const std::string v1_path = testing::TempDir() + "/wym_fault_legacy.wym";
  ASSERT_TRUE(io::WriteFileAtomic(v1_path, "12 wym-model/v1 1 1 0 3 ").ok());
  auto loaded = core::WymModel::LoadFromFile(v1_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption)
      << loaded.status().ToString();
  std::string summary;
  const Status verified = core::WymModel::VerifyFile(v1_path, &summary);
  EXPECT_EQ(verified.code(), Status::Code::kCorruption) << verified.ToString();
  std::remove(v1_path.c_str());
}

// ---------------------------------------------------------------------
// CSV reader under injected faults
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, TruncatedCsvReadIsReportedNotCrashed) {
  const std::string csv_path = testing::TempDir() + "/wym_fault_data.csv";
  ASSERT_TRUE(data::WriteDatasetCsv(suite_->split.test, csv_path).ok());
  std::string csv_bytes;
  ASSERT_TRUE(io::ReadFileToString(csv_path, &csv_bytes).ok());

  // Cut mid-row (not at a line boundary): the torn last row must be
  // reported as a parse failure with file:line, not silently dropped.
  const size_t last_newline = csv_bytes.find_last_of('\n', csv_bytes.size() - 2);
  ASSERT_NE(last_newline, std::string::npos);
  io::FaultInjector injector;
  injector.ShortRead(last_newline + 3);
  io::ScopedFaultInjector scope(&injector);
  const auto torn = data::ReadDatasetCsv(csv_path, "test.csv");
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), Status::Code::kCorruption);
  EXPECT_NE(torn.status().message().find("test.csv:"), std::string::npos)
      << torn.status().ToString();
  std::remove(csv_path.c_str());
}

// ---------------------------------------------------------------------
// Batch-prediction quarantine (graceful degradation)
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, DegenerateRecordsAreQuarantinedNotFatal) {
  // A record with empty descriptions tokenizes to zero tokens on both
  // sides — no decision units, so unexplainable. Without the quarantine
  // rule the matcher would answer from the features of an empty unit
  // set (a confident match on this model), not abort.
  data::Dataset poisoned = suite_->split.test;
  const size_t width = poisoned.schema.size();
  data::EmRecord degenerate;
  degenerate.label = 0;
  degenerate.left.values.assign(width, "");
  degenerate.right.values.assign(width, "");
  poisoned.records.insert(poisoned.records.begin() + 1, degenerate);

  core::PredictionReport report;
  const std::vector<double> probas =
      suite_->model.PredictProbaBatch(poisoned, &report);
  ASSERT_EQ(probas.size(), poisoned.size());
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].index, 1u);
  EXPECT_NE(report.quarantined[0].reason.find("zero tokens"),
            std::string::npos);
  EXPECT_EQ(report.predicted, poisoned.size() - 1);
  EXPECT_FALSE(report.clean());

  // The quarantined slot gets the non-match fallback; every healthy
  // record predicts exactly as it does without the poison pill.
  EXPECT_EQ(probas[1], 0.0);
  EXPECT_DOUBLE_EQ(probas[0], suite_->clean_probas[0]);
  for (size_t i = 2; i < probas.size(); ++i) {
    EXPECT_DOUBLE_EQ(probas[i], suite_->clean_probas[i - 1]);
  }

  // ExplainBatch quarantines the same record with an empty explanation.
  core::PredictionReport explain_report;
  const std::vector<core::Explanation> explanations =
      suite_->model.ExplainBatch(poisoned, &explain_report);
  ASSERT_EQ(explanations.size(), poisoned.size());
  ASSERT_EQ(explain_report.quarantined.size(), 1u);
  EXPECT_TRUE(explanations[1].units.empty());
  EXPECT_EQ(explanations[1].probability, 0.0);
  EXPECT_EQ(explanations[1].prediction, 0);

  // The single-record calls are the batch of one: same fallback as the
  // batch slot.
  EXPECT_EQ(suite_->model.PredictProba(degenerate), 0.0);
  EXPECT_EQ(suite_->model.Predict(degenerate), 0);
  const core::Explanation single = suite_->model.Explain(degenerate);
  EXPECT_EQ(single.probability, 0.0);
  EXPECT_EQ(single.prediction, 0);
  EXPECT_TRUE(single.units.empty());
}

// ---------------------------------------------------------------------
// Failure paths feed the obs metrics registry (DESIGN.md
// "Observability"): every detected fault leaves an audit trail in a
// counter, so production runs can alarm on nonzero deltas.
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, CorruptionLoadIncrementsCounter) {
  obs::Counter& corruption =
      obs::Registry::Global().GetCounter("io.corruption_detected");
  const std::uint64_t before = corruption.Value();

  io::FaultInjector injector;
  injector.FlipBit(suite_->clean_bytes.size() * 4);  // Mid-file payload.
  io::ScopedFaultInjector scope(&injector);
  const auto loaded = core::WymModel::LoadFromFile(suite_->path);
  ASSERT_FALSE(loaded.ok());

  EXPECT_GT(corruption.Value(), before)
      << "corrupted load left io.corruption_detected untouched";
}

TEST_F(FaultInjectionTest, CsvQuarantineIncrementsCounter) {
  obs::Counter& quarantined =
      obs::Registry::Global().GetCounter("csv.rows_quarantined");
  const std::uint64_t before = quarantined.Value();

  // Two damaged rows in an otherwise healthy file.
  std::string csv = data::DatasetToCsv(suite_->split.test);
  csv += "torn,row\n";
  csv += "\"unterminated quote\n";
  data::CsvOptions options;
  options.quarantine = true;
  data::CsvReport report;
  const auto parsed = data::DatasetFromCsv(csv, "poisoned.csv", options,
                                           &report);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_GE(report.rows_quarantined, 2u);

  EXPECT_EQ(quarantined.Value() - before, report.rows_quarantined)
      << "csv.rows_quarantined must track CsvReport exactly";
}

TEST_F(FaultInjectionTest, PredictQuarantineIncrementsCounter) {
  obs::Counter& quarantined =
      obs::Registry::Global().GetCounter("predict.records_quarantined");
  obs::Counter& records =
      obs::Registry::Global().GetCounter("predict.records");
  const std::uint64_t quarantined_before = quarantined.Value();
  const std::uint64_t records_before = records.Value();

  data::Dataset poisoned = suite_->split.test;
  data::EmRecord degenerate;
  degenerate.label = 0;
  degenerate.left.values.assign(poisoned.schema.size(), "");
  degenerate.right.values.assign(poisoned.schema.size(), "");
  poisoned.records.push_back(degenerate);

  core::PredictionReport report;
  (void)suite_->model.PredictProbaBatch(poisoned, &report);
  ASSERT_EQ(report.quarantined.size(), 1u);

  EXPECT_EQ(quarantined.Value() - quarantined_before, 1u);
  EXPECT_EQ(records.Value() - records_before, poisoned.size());
}

TEST_F(FaultInjectionTest, CleanDatasetReportsClean) {
  core::PredictionReport report;
  const std::vector<double> probas =
      suite_->model.PredictProbaBatch(suite_->split.test, &report);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.predicted, suite_->split.test.size());
  ASSERT_EQ(probas.size(), suite_->clean_probas.size());
  for (size_t i = 0; i < probas.size(); ++i) {
    EXPECT_DOUBLE_EQ(probas[i], suite_->clean_probas[i]);
  }
}

}  // namespace
}  // namespace wym
