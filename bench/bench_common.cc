#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "ml/metrics.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/io.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace wym::bench {

double ScaleFromEnv() {
  const char* raw = std::getenv("WYM_SCALE");
  if (raw == nullptr) return 1.0;
  const double scale = std::strtod(raw, nullptr);
  return std::clamp(scale, 0.05, 10.0);
}

std::vector<data::DatasetSpec> SelectedSpecs() {
  const char* raw = std::getenv("WYM_DATASETS");
  const auto& all = data::BenchmarkSpecs();
  if (raw == nullptr || *raw == '\0') return all;
  std::vector<data::DatasetSpec> selected;
  for (const auto& id : strings::Split(raw, ',')) {
    const data::DatasetSpec* spec = data::FindSpec(strings::Trim(id));
    if (spec != nullptr) selected.push_back(*spec);
  }
  return selected.empty() ? all : selected;
}

PreparedData Prepare(const data::DatasetSpec& spec, double scale,
                     uint64_t seed) {
  PreparedData out;
  out.dataset = data::GenerateDataset(spec, seed, scale);
  out.split = data::DefaultSplit(out.dataset, seed);
  return out;
}

core::WymModel TrainWym(const PreparedData& data,
                        const core::WymConfig& config) {
  core::WymModel model(config);
  model.Fit(data.split.train, data.split.validation);
  return model;
}

double TestF1(const core::Matcher& matcher, const data::Split& split) {
  return ml::F1Score(split.test.Labels(),
                     matcher.PredictDataset(split.test));
}

double ExplainRecPerSec(const core::WymModel& model,
                        const data::Dataset& sample, util::ThreadPool* pool,
                        core::PredictionReport* report) {
  if (sample.size() == 0) return 0.0;
  Stopwatch watch;
  const std::vector<core::Explanation> explanations =
      model.ExplainBatch(sample, report, pool);
  const double seconds = watch.ElapsedSeconds();
  return static_cast<double>(explanations.size()) / std::max(seconds, 1e-9);
}

data::Dataset Head(const data::Dataset& dataset, size_t limit) {
  std::vector<size_t> indices;
  for (size_t i = 0; i < std::min(limit, dataset.size()); ++i) {
    indices.push_back(i);
  }
  return data::Subset(dataset, indices, "/head");
}

data::Dataset BalancedSample(const data::Dataset& dataset,
                             size_t per_class) {
  std::vector<size_t> indices;
  size_t matches = 0, non_matches = 0;
  for (size_t i = 0; i < dataset.size(); ++i) {
    if (dataset.records[i].label == 1 && matches < per_class) {
      indices.push_back(i);
      ++matches;
    } else if (dataset.records[i].label == 0 && non_matches < per_class) {
      indices.push_back(i);
      ++non_matches;
    }
  }
  return data::Subset(dataset, indices, "/balanced");
}

PerfReport::PerfReport(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

PerfReport PerfReport::FromArgs(std::string bench_name, int* argc,
                                char** argv) {
  PerfReport report(std::move(bench_name));
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      report.path_ = "BENCH_" + report.bench_name_ + ".json";
      continue;
    }
    if (std::strncmp(arg, "--json=", 7) == 0 && arg[7] != '\0') {
      report.path_ = arg + 7;
      continue;
    }
    argv[kept++] = argv[i];
  }
  *argc = kept;
  argv[kept] = nullptr;
  return report;
}

void PerfReport::AddStage(const std::string& name, double seconds) {
  stages_.push_back({name, seconds});
}

void PerfReport::AddRate(const std::string& name, double per_sec) {
  rates_.push_back({name, per_sec});
}

void PerfReport::AddBenchmark(const std::string& name, double time_ns,
                              uint64_t iterations) {
  benchmarks_.push_back({name, time_ns, iterations});
}

bool PerfReport::Write() const {
  if (!requested()) return true;

  // Each entry list is [{"name":...,"<value_key>":<number>}, ...].
  const auto append_entries = [](const std::vector<Entry>& entries,
                                 const char* value_key, std::string* json) {
    for (size_t i = 0; i < entries.size(); ++i) {
      *json += i > 0 ? ",{\"name\":" : "{\"name\":";
      obs::AppendJsonString(entries[i].name, json);
      *json += ",\"";
      *json += value_key;
      *json += "\":";
      obs::AppendJsonNumber(entries[i].value, json);
      *json += '}';
    }
  };

  std::string json = "{\"schema\":\"wym-bench-report/v1\",\"bench\":";
  obs::AppendJsonString(bench_name_, &json);
  json += ",\"scale\":";
  obs::AppendJsonNumber(ScaleFromEnv(), &json);
  json += ",\"seed\":";
  obs::AppendJsonUint(kSeed, &json);
  json += ",\"benchmarks\":[";
  for (size_t i = 0; i < benchmarks_.size(); ++i) {
    json += i > 0 ? ",{\"name\":" : "{\"name\":";
    obs::AppendJsonString(benchmarks_[i].name, &json);
    json += ",\"time_ns\":";
    obs::AppendJsonNumber(benchmarks_[i].time_ns, &json);
    json += ",\"iterations\":";
    obs::AppendJsonUint(benchmarks_[i].iterations, &json);
    json += '}';
  }
  json += "],\"stages\":[";
  append_entries(stages_, "seconds", &json);
  json += "],\"rates\":[";
  append_entries(rates_, "per_sec", &json);
  json += "],\"metrics\":" +
          obs::MetricsToJson(obs::Registry::Global().Snapshot()) + "}\n";

  const Status status = io::WriteFileAtomic(path_, json);
  if (!status.ok()) {
    std::fprintf(stderr, "perf report: cannot write %s: %s\n", path_.c_str(),
                 status.ToString().c_str());
    return false;
  }
  std::printf("perf report written to %s\n", path_.c_str());
  return true;
}

void PrintBanner(const std::string& what) {
  std::printf(
      "== %s ==\n"
      "(WYM reproduction on the synthetic Magellan benchmark; scale=%.2f,"
      " seed=%llu. Shapes, not absolute values, are the comparison"
      " target -- see EXPERIMENTS.md.)\n\n",
      what.c_str(), ScaleFromEnv(),
      static_cast<unsigned long long>(kSeed));
}

}  // namespace wym::bench
