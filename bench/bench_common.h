#ifndef WYM_BENCH_BENCH_COMMON_H_
#define WYM_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/split.h"
#include "util/thread_pool.h"

/// \file
/// Shared plumbing for the table/figure harnesses. Environment knobs:
///   WYM_SCALE    — multiplies every dataset's default size (default 1).
///   WYM_DATASETS — comma-separated ids to restrict a run, e.g.
///                  "S-DA,S-FZ" (default: all 12).
///   WYM_THREADS  — sizes the global thread pool used by the batch
///                  prediction/explanation paths (default: all cores).

namespace wym::bench {

/// Fixed seed of the reproduction runs.
inline constexpr uint64_t kSeed = 42;

/// WYM_SCALE (default 1.0, clamped to [0.05, 10]).
double ScaleFromEnv();

/// The benchmark specs selected by WYM_DATASETS (all when unset).
std::vector<data::DatasetSpec> SelectedSpecs();

/// Generates a dataset and its 60-20-20 split.
struct PreparedData {
  data::Dataset dataset;
  data::Split split;
};
PreparedData Prepare(const data::DatasetSpec& spec, double scale,
                     uint64_t seed = kSeed);

/// Trains a WymModel with `config` on the prepared split.
core::WymModel TrainWym(const PreparedData& data,
                        const core::WymConfig& config = {});

/// Test-set F1 of any matcher (via the virtual PredictDataset, which is
/// the parallel batch path for WymModel).
double TestF1(const core::Matcher& matcher, const data::Split& split);

/// Explanation throughput (records/second) of ExplainBatch over `sample`
/// on `pool` (nullptr = the global pool). `report` (optional) receives
/// the batch's PredictionReport, stage block included.
double ExplainRecPerSec(const core::WymModel& model,
                        const data::Dataset& sample, util::ThreadPool* pool,
                        core::PredictionReport* report = nullptr);

/// Takes the first `limit` records of a dataset (or all).
data::Dataset Head(const data::Dataset& dataset, size_t limit);

/// Balanced sample: up to `per_class` matches and `per_class` non-matches.
data::Dataset BalancedSample(const data::Dataset& dataset, size_t per_class);

/// Prints the standard harness banner (paper reference + scale note).
void PrintBanner(const std::string& what);

/// Machine-readable perf report: the `--json[=PATH]` emitter shared by
/// every harness (wym-bench-report/v1 schema, validated by
/// obs::ValidateBenchReportJson and `wym_cli validate-report`).
///
/// Usage: `PerfReport report = PerfReport::FromArgs("micro", &argc,
/// argv);` strips the flag from argv (so google-benchmark or a plain
/// harness never sees it), then AddStage/AddRate/AddBenchmark while
/// running and Write() at the end. Write() embeds a snapshot of the
/// whole obs metrics registry (counters, gauges, histogram p50/p95),
/// which is how stage-level timings and the quarantine/corruption
/// counters reach the BENCH_*.json trajectory.
class PerfReport {
 public:
  /// A report that was not requested; requested() is false and Write()
  /// is a no-op success.
  explicit PerfReport(std::string bench_name);

  /// Parses and removes `--json` / `--json=PATH` from argv. A bare
  /// `--json` defaults to BENCH_<bench_name>.json in the working
  /// directory.
  static PerfReport FromArgs(std::string bench_name, int* argc, char** argv);

  bool requested() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  /// Named wall-clock stage duration (seconds).
  void AddStage(const std::string& name, double seconds);
  /// Named throughput (records/second etc.).
  void AddRate(const std::string& name, double per_sec);
  /// One google-benchmark result (per-iteration real time, ns).
  void AddBenchmark(const std::string& name, double time_ns,
                    uint64_t iterations);

  /// Writes the JSON file (no-op success when not requested). Returns
  /// false after printing the failure to stderr.
  bool Write() const;

 private:
  struct Entry {
    std::string name;
    double value;
  };
  struct BenchEntry {
    std::string name;
    double time_ns;
    uint64_t iterations;
  };

  std::string bench_name_;
  std::string path_;
  std::vector<Entry> stages_;
  std::vector<Entry> rates_;
  std::vector<BenchEntry> benchmarks_;
};

}  // namespace wym::bench

#endif  // WYM_BENCH_BENCH_COMMON_H_
