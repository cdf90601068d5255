// perfbench_driver — one benchmark run of one workload.
//
//   perfbench_driver --workload er_tables|serve_cold|serve_hot --seed N
//                    --seconds S --trace 0|1 --serve-bin PATH --work-dir DIR
//
// Prints the run's metrics as text, then, as the last stdout line, one
// JSON object {"correct","attempted","failed","metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 runs the traced variant and
// reports the per-layer metrics (perfbench/README.md has both lists).
// The metric names and units below are the ones BENCHMARK.json lists.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Latency (review p50/p99, serve_p50/p90/p99_ms) and fit_rec_per_s are
// printed but not gated: see perfbench/README.md.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},             {"peak_rss_mb", "MB"},
    {"resolve_rec_per_s", "1/s"}, {"explain_rec_per_s", "1/s"},
    {"f1", "frac"},
};

// Layers a workload does not exercise report 0 (a count of nothing).
constexpr MetricName kPerLayer[] = {
    {"fit.total_s", "s"},
    {"blocking.build_s", "s"},
    {"blocking.probe_s", "s"},
    {"blocking.candidates", "count"},
    {"blocking.recall", "frac"},
    {"blocking.match_yield", "frac"},
    {"core.predict_s", "s"},
    {"core.encode_us", "us"},
    {"core.units_us", "us"},
    {"core.score_us", "us"},
    {"core.classify_us", "us"},
    {"core.impacts_us", "us"},
    {"core.tokens_per_rec", "count"},
    {"core.units_per_rec", "count"},
    {"core.paired_unit_frac", "frac"},
    {"core.explain_share", "frac"},
    {"explain.batch_s", "s"},
    {"explain.render_us", "us"},
    {"explain.json_bytes", "bytes"},
    {"serve.queue_p50_us", "us"},
    {"serve.queue_p99_us", "us"},
    {"serve.run_p50_us", "us"},
    {"serve.run_p99_us", "us"},
    {"serve.pool_wait_p95_us", "us"},
    {"serve.shed", "count"},
    {"serve.deadline", "count"},
    {"serve.transport_us", "us"},
    {"serve.response_bytes", "bytes"},
    {"serve.cache_hit_frac", "frac"},
    {"protocol.parse_us", "us"},
    {"protocol.render_us", "us"},
    {"gen.lag_p99_ms", "ms"},
    {"gen.sent", "count"},
    {"gen.ok", "count"},
    {"gen.failed", "count"},
    {"self.fit_s", "s"},
    {"self.blocking_s", "s"},
    {"self.core_s", "s"},
    {"self.explain_s", "s"},
    {"self.protocol_s", "s"},
    {"self.serve_s", "s"},
    {"self.gen_s", "s"},
    {"self.transport_s", "s"},
    {"trace.unattributed_frac", "frac"},
    {"trace.overhead_frac", "frac"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload er_tables|serve_cold|"
               "serve_hot --seed N --seconds S --trace 0|1 "
               "--serve-bin PATH --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--serve-bin") {
      options.serve_bin = value;
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.work_dir.empty() || options.seconds <= 0) {
    return Usage();
  }

  perfbench::RunResult result;
  int status = 0;
  if (options.workload == "er_tables") {
    status = perfbench::RunErTables(options, &result);
  } else if (options.workload == "serve_cold" ||
             options.workload == "serve_hot") {
    if (options.serve_bin.empty()) return Usage();
    status = perfbench::RunServe(options, options.workload == "serve_hot",
                                 &result);
  } else {
    return Usage();
  }
  if (status != 0) return status;

  // Every metric goes to the text log; the JSON carries exactly the
  // listed set for the run's mode.
  perfbench::RunResult out;
  out.correct = result.correct;
  out.attempted = std::max<uint64_t>(1, result.attempted);
  out.failed = result.failed;
  for (const auto& m : result.metrics) {
    std::printf("  %-26s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const auto emit = [&](const MetricName& wanted, bool required) {
    for (const auto& m : result.metrics) {
      if (m.name == wanted.name) {
        out.Add(m.name, m.value, wanted.unit);
        return;
      }
    }
    if (required) {
      out.correct = false;
      std::fprintf(stderr, "metric %s was not measured\n", wanted.name);
    }
    out.Add(wanted.name, 0.0, wanted.unit);
  };
  if (options.trace) {
    for (const auto& m : kPerLayer) emit(m, false);
  } else {
    for (const auto& m : kEndToEnd) emit(m, true);
  }
  std::printf("%s\n", out.ToJson().c_str());
  return 0;
}
