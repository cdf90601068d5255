#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>

#include "core/explainable_matcher.h"
#include "data/benchmark_gen.h"
#include "data/split.h"
#include "explain/report.h"

namespace perfbench {

void RunResult::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

std::string RunResult::ToJson() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  return os.str();
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status")
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

uint64_t Fnv1a(const void* bytes, size_t size, uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < size; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

double F1(size_t true_positive, size_t predicted_positive,
          size_t actual_positive) {
  if (true_positive == 0) return 0.0;
  const double precision = static_cast<double>(true_positive) /
                           static_cast<double>(predicted_positive);
  const double recall = static_cast<double>(true_positive) /
                        static_cast<double>(actual_positive);
  return 2.0 * precision * recall / (precision + recall);
}

int Tracer::Open(const std::string& name, uint64_t request) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, NowNs(), 0, parent, request, 0});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::Close() {
  spans_[static_cast<size_t>(open_.back())].end_ns = NowNs();
  open_.pop_back();
}

int Tracer::Add(const std::string& name, uint64_t start_ns, uint64_t end_ns,
                int parent, uint64_t request, int lane) {
  spans_.push_back({name, start_ns, std::max(start_ns, end_ns), parent,
                    request, lane});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += std::max(0.0, self[i]) / 1e9;
  }
  return by_name;
}

double Tracer::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) {
      total += static_cast<double>(span.end_ns - span.start_ns) / 1e9;
    }
  }
  return total;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  uint64_t origin = UINT64_MAX;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  out << "{\"traceEvents\":[";
  char buffer[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"req\":%llu}}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.lane + 1,
                  i, s.parent, static_cast<unsigned long long>(s.request));
    out << buffer;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

double StageReplay::ExplainShare() const {
  const double total =
      encode_us + units_us + score_us + classify_us + impacts_us;
  return total > 0 ? (score_us + impacts_us) / total : 0.0;
}

void StageReplay::AddTo(RunResult* result) const {
  result->Add("core.encode_us", encode_us, "us");
  result->Add("core.units_us", units_us, "us");
  result->Add("core.score_us", score_us, "us");
  result->Add("core.classify_us", classify_us, "us");
  result->Add("core.impacts_us", impacts_us, "us");
  result->Add("core.explain_share", ExplainShare(), "frac");
  result->Add("core.tokens_per_rec", tokens_per_rec, "count");
  result->Add("core.units_per_rec", units_per_rec, "count");
  result->Add("core.paired_unit_frac", paired_unit_frac, "frac");
  result->Add("explain.render_us", render_us, "us");
  result->Add("explain.json_bytes", json_bytes, "bytes");
}

StageReplay ReplayStages(const wym::core::WymModel& model,
                         const std::vector<wym::data::EmRecord>& records,
                         const std::vector<double>& expected,
                         Tracer* tracer) {
  using wym::core::ScoredUnitSet;
  StageReplay out;
  double stage_ns[6] = {0, 0, 0, 0, 0, 0};
  size_t tokens = 0, units = 0, paired = 0, json_bytes = 0;
  // Each stage call is timed on its own; the spans (when tracing) wrap
  // exactly the same calls.
  const auto timed = [&](int stage, const char* name, auto&& fn) {
    ScopedSpan span(tracer, name);
    const uint64_t t0 = NowNs();
    fn();
    stage_ns[stage] += static_cast<double>(NowNs() - t0);
  };
  for (size_t i = 0; i < records.size(); ++i) {
    wym::core::TokenizedRecord tokenized;
    ScoredUnitSet set;
    double probability = 0.0;
    std::vector<double> impacts;
    std::string json;
    timed(0, "core.encode", [&] { tokenized = model.Prepare(records[i]); });
    timed(1, "core.units", [&] { set.units = model.GenerateUnits(tokenized); });
    timed(2, "core.score",
          [&] { set.scores = model.ScoreUnits(tokenized, set.units); });
    timed(3, "core.classify",
          [&] { probability = model.PredictProbaFromUnits(set); });
    timed(4, "core.impacts",
          [&] { impacts = model.matcher().UnitImpacts(set); });
    wym::core::Explanation explanation;
    explanation.probability = probability;
    explanation.prediction = probability >= 0.5 ? 1 : 0;
    for (size_t u = 0; u < set.size(); ++u) {
      explanation.units.push_back({set.units[u], set.scores[u], impacts[u]});
    }
    timed(5, "explain.render",
          [&] { json = wym::explain::ExplanationToJson(explanation); });
    if (i < expected.size() && probability != expected[i]) ++out.mismatches;
    tokens += tokenized.left.tokens.size() + tokenized.right.tokens.size();
    units += set.size();
    for (const auto& unit : set.units) paired += unit.paired ? 1 : 0;
    json_bytes += json.size();
  }
  const double n = std::max<double>(1.0, static_cast<double>(records.size()));
  out.encode_us = stage_ns[0] / n / 1e3;
  out.units_us = stage_ns[1] / n / 1e3;
  out.score_us = stage_ns[2] / n / 1e3;
  out.classify_us = stage_ns[3] / n / 1e3;
  out.impacts_us = stage_ns[4] / n / 1e3;
  out.render_us = stage_ns[5] / n / 1e3;
  out.tokens_per_rec = static_cast<double>(tokens) / n;
  out.units_per_rec = static_cast<double>(units) / n;
  out.paired_unit_frac =
      units == 0 ? 0.0
                 : static_cast<double>(paired) / static_cast<double>(units);
  out.json_bytes = static_cast<double>(json_bytes) / n;
  return out;
}

ModelSetup SetUpModel(const std::string& dataset_id, double scale,
                      uint64_t seed, const std::string& path, Tracer* tracer,
                      RunResult* result) {
  ModelSetup out;
  out.path = path;
  const uint64_t t0 = NowNs();
  const wym::data::Dataset dataset =
      wym::data::GenerateById(dataset_id, seed, scale);
  const wym::data::Split split = wym::data::DefaultSplit(dataset, seed);
  out.train_records = split.train.size();
  wym::core::WymModel fitted;
  const uint64_t fit_start = NowNs();
  out.generate_s = static_cast<double>(fit_start - t0) / 1e9;
  {
    ScopedSpan span(tracer, "fit.total");
    fitted.Fit(split.train, split.validation);
  }
  const uint64_t persist_start = NowNs();
  out.fit_s = static_cast<double>(persist_start - fit_start) / 1e9;
  const wym::Status saved = fitted.SaveToFile(path);
  if (!saved.ok()) {
    result->Fail("model save: " + saved.ToString());
    return out;
  }
  wym::Result<wym::core::WymModel> loaded =
      wym::core::WymModel::LoadFromFile(path);
  if (!loaded.ok()) {
    result->Fail("model load: " + loaded.status().ToString());
    return out;
  }
  out.model = std::move(loaded).value();
  const uint64_t end = NowNs();
  out.persist_s = static_cast<double>(end - persist_start) / 1e9;
  out.setup_s = static_cast<double>(end - t0) / 1e9;
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  out.file_digest = Fnv1a(bytes.data(), bytes.size());
  return out;
}

void AddSelfTimes(const Tracer& tracer, RunResult* result) {
  std::map<std::string, double> by_layer;
  for (const auto& [name, seconds] : tracer.SelfSeconds()) {
    by_layer[name.substr(0, name.find('.'))] += seconds;
  }
  for (const auto& [layer, seconds] : by_layer) {
    result->Add("self." + layer + "_s", seconds, "s");
  }
}

}  // namespace perfbench
