// Shared pieces of the benchmark driver: run options, the result the
// driver prints, small statistics helpers, /proc readers, and the span
// recorder behind the traced run (--trace 1).
#ifndef PERFBENCH_DRIVER_COMMON_H_
#define PERFBENCH_DRIVER_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/wym.h"
#include "data/record.h"

namespace perfbench {

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Path of the wym_serve binary (serve workloads).
  std::string serve_bin;
  /// Scratch directory for models, sockets, journals and traces.
  std::string work_dir;
};

/// What one run reports: the correctness verdict, operation counts and
/// named metrics (the last stdout line of the run, as JSON).
struct RunResult {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed correctness check (named on stderr).
  void Fail(const std::string& why);
  std::string ToJson() const;
};

/// Monotonic clock in nanoseconds (steady_clock).
uint64_t NowNs();
inline double NsToMs(double ns) { return ns / 1e6; }
inline double NsToUs(double ns) { return ns / 1e3; }

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1] (0 when empty).
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Peak resident set (VmHWM) of process `pid` in MB; 0 = self. Returns
/// 0 when /proc has no such entry.
double PeakRssMb(int pid = 0);

/// FNV-1a over `bytes`, chained from `hash`.
uint64_t Fnv1a(const void* bytes, size_t size,
               uint64_t hash = 1469598103934665603ull);

/// F1 of `predicted_positive`/`true_positive` against `actual_positive`.
double F1(size_t true_positive, size_t predicted_positive,
          size_t actual_positive);

/// Span recorder for the traced run. Spans live in memory and are
/// written once, at the end, as Chrome trace_event JSON (the format of
/// src/obs/trace.h). Each span has a name, start, end, parent span and
/// a request id (0 = not request-scoped).
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int parent = -1;
    uint64_t request = 0;
    int lane = 0;
  };

  /// Opens a span as a child of the innermost open span; returns its
  /// index. Close() ends the innermost open span.
  int Open(const std::string& name, uint64_t request = 0);
  void Close();
  /// Adds an already-finished span (times measured elsewhere).
  int Add(const std::string& name, uint64_t start_ns, uint64_t end_ns,
          int parent, uint64_t request = 0, int lane = 0);

  /// Self time per span name: duration minus the time its direct
  /// children cover, summed over spans of that name, in seconds.
  std::map<std::string, double> SelfSeconds() const;
  /// Summed duration of the spans named `name`, in seconds.
  double TotalSeconds(const std::string& name) const;
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as a trace_event file; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a Tracer; a null tracer makes it a no-op, so the same
/// code path runs traced and untraced.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Open(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// Per-record stage costs from a sequential replay of a fixed sample
/// through the model's public stage hooks: Prepare (tokenize+encode) ->
/// GenerateUnits -> ScoreUnits -> PredictProbaFromUnits (classify) ->
/// matcher().UnitImpacts, then explain::ExplanationToJson.
struct StageReplay {
  double encode_us = 0, units_us = 0, score_us = 0, classify_us = 0;
  double impacts_us = 0, render_us = 0;
  double tokens_per_rec = 0, units_per_rec = 0, paired_unit_frac = 0;
  double json_bytes = 0;
  /// Records whose replayed probability differs from `expected`.
  size_t mismatches = 0;

  /// (score + impacts) over the five model stages: the paper's §5.3
  /// share of inference spent on explanation.
  double ExplainShare() const;
  void AddTo(RunResult* result) const;
};

/// Replays `records` (with batch probabilities `expected`, same order)
/// through the stage hooks, spanning each call when `tracer` is set.
StageReplay ReplayStages(const wym::core::WymModel& model,
                         const std::vector<wym::data::EmRecord>& records,
                         const std::vector<double>& expected,
                         Tracer* tracer);

/// Adds `self.<layer>_s` per layer: the self times of the spans whose
/// names share the prefix before the first '.'.
void AddSelfTimes(const Tracer& tracer, RunResult* result);

/// Every workload's model trains on data generated from this fixed seed:
/// the model is part of the workload, like a deployed one, while --seed
/// draws the tables and traffic it meets. (A per-seed model would make
/// every cost metric vary with the classifier that seed happens to pick.)
constexpr uint64_t kModelSeed = 1;

/// One model set-up: generate the training dataset, Fit, save the model
/// file, load it back.
struct ModelSetup {
  wym::core::WymModel model;
  std::string path;
  double setup_s = 0.0;
  /// Set-up phases: data generation, Fit, save + load.
  double generate_s = 0.0;
  double fit_s = 0.0;
  double persist_s = 0.0;
  size_t train_records = 0;
  /// FNV-1a of the saved model file (Fit determinism check).
  uint64_t file_digest = 0;
};
/// Runs one set-up of `dataset_id` at `scale`, saving to `path`.
/// Fails the run (and returns an unfitted model) on I/O errors.
ModelSetup SetUpModel(const std::string& dataset_id, double scale,
                      uint64_t seed, const std::string& path, Tracer* tracer,
                      RunResult* result);

int RunErTables(const RunOptions& options, RunResult* result);
int RunServe(const RunOptions& options, bool hot, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_COMMON_H_
