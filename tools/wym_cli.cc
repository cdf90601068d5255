// wym_cli — command-line front end for the WYM library.
//
//   wym_cli generate  --dataset S-WA --out /tmp/swa.csv [--seed 42]
//                     [--scale 1.0]
//   wym_cli train-eval --data /tmp/swa.csv [--save model.wym]
//                     [--classifier LR]
//                     [--encoder siamese|finetuned|pretrained]
//                     [--scorer neural|binary|cosine] [--simplified]
//                     [--theta T --eta E --epsilon P] [--code-rule]
//   wym_cli explain   --data /tmp/swa.csv --record 5 [--json]
//                     [--model model.wym | ... same model flags]
//   wym_cli stats     --data /tmp/swa.csv [--model model.wym]
//                     # global attribution report (attribute influence +
//                     # recurring decision units) followed by a dump of
//                     # the obs metrics registry for the run
//   wym_cli profile   --data /tmp/swa.csv   # dataset quality profile
//   wym_cli verify    --model model.wym
//                     # check the file's frames/CRCs without loading it
//   wym_cli validate-report --file BENCH_micro.json
//                     # schema-check a machine-readable artifact: bench
//                     # report, WYM_TRACE trace, wym-telemetry/v1,
//                     # wym-flight-recorder/v1, or a wym-journal/v1
//                     # request journal (auto-detected by content)
//   wym_cli compare-reports <baseline.json> <current.json>
//                     [--tolerance 0.10]
//                     # compare two bench reports benchmark-by-benchmark
//                     # (name intersection); exit 4 if any current
//                     # time_ns exceeds baseline * (1 + tolerance)
//   wym_cli query     --socket /tmp/wym.sock [--op predict] [--model m]
//                     [--left 'a|b'] [--right 'a|b'] [--explain]
//                     [--deadline-ms 0] [--name n] [--path p]
//                     [--timeout-ms 5000] [--retries 3] [--json]
//                     # one request against a running wym_serve; retries
//                     # with capped exponential backoff, but only on
//                     # connect failure or ResourceExhausted shed —
//                     # application errors are answered, not retried
//   wym_cli top       --socket /tmp/wym.sock [--count 1]
//                     [--interval-ms 1000] [--timeout-ms 5000]
//                     # live windowed serving stats (qps, shed rate,
//                     # cache hit rate, p50/p95/p99) from the stats op;
//                     # repeats --count times at --interval-ms
//   wym_cli tail      --file req.jsonl [--lines 10] [--follow]
//                     [--for-ms 0]
//                     # print the last N request-journal lines;
//                     # --follow keeps polling for appended records
//                     # (--for-ms bounds how long, 0 = until SIGINT)
//   wym_cli list      # available benchmark dataset ids
//
// train-eval / explain apply the paper's 60-20-20 split internally.
//
// Exit codes: 0 success, 1 usage or other error, 2 I/O error,
// 3 corruption (failed checksum / damaged file), 4 perf regression
// (compare-reports only). Failure messages go to stderr.

#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/unit_generator.h"
#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/csv.h"
#include "data/statistics.h"
#include "data/split.h"
#include "explain/global.h"
#include "explain/report.h"
#include "ml/classifier_pool.h"
#include "ml/metrics.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/report.h"
#include "serve/protocol.h"
#include "serve/socket_io.h"
#include "util/io.h"
#include "flags.h"

namespace {

using namespace wym;
using namespace wym::tools;

/// Largest value of the flags the tools hold in an int.
constexpr uint64_t kMaxInt = std::numeric_limits<int>::max();

uint64_t Seed(const Flags& args) { return args.GetUint("seed", 42); }

int Usage() {
  std::fprintf(stderr,
               "usage: wym_cli <generate|train-eval|explain|stats|profile|"
               "verify|validate-report|compare-reports|query|top|tail|list>"
               " [flags]\n"
               "see the header of tools/wym_cli.cc for the flag list\n");
  return kExitUsage;
}

core::WymConfig ConfigFromArgs(const Flags& args) {
  core::WymConfig config;
  const std::string encoder = args.Get("encoder", "siamese");
  if (encoder == "pretrained") {
    config.encoder.mode = embedding::EncoderMode::kPretrained;
  } else if (encoder == "finetuned") {
    config.encoder.mode = embedding::EncoderMode::kFineTuned;
  } else if (encoder == "siamese") {
    config.encoder.mode = embedding::EncoderMode::kSiamese;
  } else if (encoder == "jaro-winkler") {
    config.generator.similarity = core::PairingSimilarity::kJaroWinkler;
  } else {
    std::fprintf(stderr, "unknown --encoder %s\n", encoder.c_str());
    std::exit(kExitUsage);
  }
  const std::string scorer = args.Get("scorer", "neural");
  if (scorer == "binary") {
    config.scorer.kind = core::ScorerKind::kBinary;
  } else if (scorer == "cosine") {
    config.scorer.kind = core::ScorerKind::kCosine;
  } else if (scorer != "neural") {
    std::fprintf(stderr, "unknown --scorer %s\n", scorer.c_str());
    std::exit(kExitUsage);
  }
  config.simplified_features = args.Has("simplified");
  config.classifier = args.Get("classifier", "");
  const std::vector<std::string> members = ml::PoolMemberNames();
  if (!config.classifier.empty() &&
      std::find(members.begin(), members.end(), config.classifier) ==
          members.end()) {
    std::string known;
    for (const std::string& member : members) known += " " + member;
    std::fprintf(stderr, "unknown --classifier %s (pool members:%s)\n",
                 config.classifier.c_str(), known.c_str());
    std::exit(kExitUsage);
  }
  config.generator.theta = args.GetDouble("theta", config.generator.theta);
  config.generator.eta = args.GetDouble("eta", config.generator.eta);
  config.generator.epsilon =
      args.GetDouble("epsilon", config.generator.epsilon);
  if (args.Has("code-rule")) {
    config.generator.rules.push_back(core::EqualProductCodeRule());
  }
  return config;
}

data::Dataset LoadData(const Flags& args) {
  const std::string path = args.Get("data");
  if (path.empty()) {
    std::fprintf(stderr, "--data <csv> is required\n");
    std::exit(kExitUsage);
  }
  auto result = data::ReadDatasetCsv(path, path);
  if (!result.ok()) {
    std::exit(StatusExit(result.status().Annotate("cannot load " + path)));
  }
  return std::move(result).value();
}

int CmdList() {
  std::printf("%-6s %-28s %-11s %9s %7s\n", "id", "name", "type",
              "paper_sz", "match%");
  for (const auto& spec : data::BenchmarkSpecs()) {
    std::printf("%-6s %-28s %-11s %9zu %7.2f\n", spec.id.c_str(),
                spec.full_name.c_str(), data::DatasetTypeName(spec.type),
                spec.paper_size, spec.paper_match_percent);
  }
  return 0;
}

int CmdGenerate(const Flags& args) {
  const std::string id = args.Get("dataset");
  const data::DatasetSpec* spec = data::FindSpec(id);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown --dataset '%s' (try: wym_cli list)\n",
                 id.c_str());
    return kExitUsage;
  }
  const std::string out = args.Get("out");
  if (out.empty()) {
    std::fprintf(stderr, "--out <csv> is required\n");
    return kExitUsage;
  }
  const data::Dataset dataset = data::GenerateDataset(
      *spec, Seed(args), args.GetDouble("scale", 1.0));
  const Status status = data::WriteDatasetCsv(dataset, out);
  if (!status.ok()) return StatusExit(status);
  std::printf("wrote %s: %zu records (%.1f%% match)\n", out.c_str(),
              dataset.size(), dataset.MatchPercent());
  return 0;
}

int CmdTrainEval(const Flags& args) {
  const data::Dataset dataset = LoadData(args);
  const data::Split split = data::DefaultSplit(dataset, Seed(args));
  core::WymModel model(ConfigFromArgs(args));
  model.Fit(split.train, split.validation);

  const std::vector<int> predicted = model.PredictDataset(split.test);
  const auto confusion = ml::Confuse(split.test.Labels(), predicted);
  std::printf("records: %zu train / %zu val / %zu test\n",
              split.train.size(), split.validation.size(),
              split.test.size());
  std::printf("classifier: %s (validation F1 %.3f, threshold %.3f)\n",
              model.matcher().best_name().c_str(),
              model.matcher().best_validation_f1(),
              model.matcher().best_threshold());
  std::printf("test precision %.3f  recall %.3f  F1 %.3f\n",
              ml::Precision(confusion), ml::Recall(confusion),
              ml::F1(confusion));
  if (args.Has("save")) {
    const std::string out = args.Get("save");
    const Status status = model.SaveToFile(out);
    if (!status.ok()) return StatusExit(status);
    std::printf("model saved to %s\n", out.c_str());
  }
  return 0;
}

int CmdExplain(const Flags& args) {
  const data::Dataset dataset = LoadData(args);
  const size_t record_index = static_cast<size_t>(args.GetUint("record", 0));
  if (record_index >= dataset.size()) {
    std::fprintf(stderr, "--record %zu out of range (%zu records)\n",
                 record_index, dataset.size());
    return kExitUsage;
  }
  core::WymModel model(ConfigFromArgs(args));
  if (args.Has("model")) {
    auto loaded = core::WymModel::LoadFromFile(args.Get("model"));
    if (!loaded.ok()) {
      return StatusExit(loaded.status().Annotate("cannot load model"));
    }
    model = std::move(loaded).value();
  } else {
    const data::Split split = data::DefaultSplit(dataset, Seed(args));
    model.Fit(split.train, split.validation);
  }

  const data::EmRecord& record = dataset.records[record_index];
  for (size_t a = 0; a < dataset.schema.size(); ++a) {
    std::printf("%-12s | %-34s | %s\n",
                dataset.schema.attributes[a].c_str(),
                record.left.values[a].c_str(),
                record.right.values[a].c_str());
  }
  std::printf("label: %d\n\n", record.label);

  const core::Explanation explanation = model.Explain(record);
  if (args.Has("json")) {
    std::printf("%s\n", explain::ExplanationToJson(explanation).c_str());
  } else {
    std::printf("%s", explain::RenderExplanation(explanation).c_str());
  }
  return 0;
}

/// `verify`: audit a model file's frames and checksums without loading
/// (or even deserializing) any model state. Exit 0 = intact, 3 = the
/// file is damaged, 2 = it cannot be read.
int CmdVerify(const Flags& args) {
  const std::string path = args.Get("model");
  if (path.empty()) {
    std::fprintf(stderr, "--model <file> is required\n");
    return kExitUsage;
  }
  std::string summary;
  const Status status = core::WymModel::VerifyFile(path, &summary);
  if (!status.ok()) return StatusExit(status);
  std::printf("%s: verified\n%s", path.c_str(), summary.c_str());
  return kExitOk;
}

/// `validate-report`: schema-check a machine-readable artifact. The
/// kind is auto-detected by content: trace files by their
/// "traceEvents" array, telemetry / flight-recorder / journal files by
/// their schema tags, everything else validates as a bench report.
/// Exit 0 = valid, 3 = structurally invalid, 2 = unreadable — the same
/// contract for every kind.
int CmdValidateReport(const Flags& args) {
  const std::string path = args.Get("file");
  if (path.empty()) {
    std::fprintf(stderr, "--file <json> is required\n");
    return kExitUsage;
  }
  std::string text;
  const Status read = io::ReadFileToString(path, &text);
  if (!read.ok()) return StatusExit(read);

  const char* kind = "bench report (wym-bench-report/v1)";
  std::string error;
  bool valid = false;
  if (text.find("\"traceEvents\"") != std::string::npos) {
    kind = "trace (trace_event JSON)";
    valid = obs::ValidateTraceJson(text, &error);
  } else if (text.find("\"wym-telemetry/v1\"") != std::string::npos) {
    kind = "telemetry (wym-telemetry/v1)";
    valid = obs::ValidateTelemetryJson(text, &error);
  } else if (text.find("\"wym-flight-recorder/v1\"") != std::string::npos) {
    kind = "flight-recorder dump (wym-flight-recorder/v1)";
    valid = obs::ValidateFlightRecorderJson(text, &error);
  } else if (text.substr(0, text.find('\n'))
                 .find("\"schema\":\"wym-journal/v1\"") != std::string::npos) {
    kind = "request journal (wym-journal/v1)";
    valid = obs::ValidateJournalJson(text, &error);
  } else {
    valid = obs::ValidateBenchReportJson(text, &error);
  }
  if (!valid) {
    std::fprintf(stderr, "%s: invalid %s: %s\n", path.c_str(), kind,
                 error.c_str());
    return kExitCorruption;
  }
  std::printf("%s: valid %s\n", path.c_str(), kind);
  return kExitOk;
}

/// Reads + schema-checks one bench report and extracts its
/// {benchmark name -> time_ns} map. Returns kExitOk or the exit code to
/// propagate.
int LoadBenchTimes(const std::string& path,
                   std::map<std::string, double>* times) {
  std::string text;
  const Status read = io::ReadFileToString(path, &text);
  if (!read.ok()) return StatusExit(read);

  std::string error;
  if (!obs::ValidateBenchReportJson(text, &error)) {
    std::fprintf(stderr, "%s: invalid bench report: %s\n", path.c_str(),
                 error.c_str());
    return kExitCorruption;
  }
  obs::JsonValue root;
  if (!obs::ParseJson(text, &root, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return kExitCorruption;
  }
  const obs::JsonValue* benchmarks = root.Find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->IsArray()) {
    std::fprintf(stderr, "%s: no benchmarks array\n", path.c_str());
    return kExitCorruption;
  }
  for (const obs::JsonValue& entry : benchmarks->array) {
    const obs::JsonValue* name = entry.Find("name");
    const obs::JsonValue* time_ns = entry.Find("time_ns");
    if (name == nullptr || time_ns == nullptr || !time_ns->IsNumber()) {
      continue;  // ValidateBenchReportJson already vouched for the shape.
    }
    (*times)[name->string] = time_ns->number;
  }
  return kExitOk;
}

/// `compare-reports`: benchmark-by-benchmark perf gate between two
/// wym-bench-report/v1 files. The current report is typically a filtered
/// subset of the seeded baseline, so baseline benchmarks it does not run
/// are skipped. Any benchmark whose current time exceeds
/// baseline * (1 + tolerance) is a regression, and any current benchmark
/// with no baseline entry is MISSING (a renamed benchmark must not leave
/// the gate silently); either fails the gate with exit 4.
int CmdCompareReports(int argc, char** argv) {
  std::vector<std::string> files;
  double tolerance = 0.10;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tolerance") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--tolerance needs a value\n");
        return kExitUsage;
      }
      if (!ParseDouble(argv[++i], &tolerance)) {
        std::fprintf(stderr, "--tolerance expects a finite number\n");
        return kExitUsage;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return kExitUsage;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2 || tolerance < 0.0) {
    std::fprintf(stderr,
                 "usage: wym_cli compare-reports <baseline.json> "
                 "<current.json> [--tolerance 0.10]\n");
    return kExitUsage;
  }

  std::map<std::string, double> baseline, current;
  if (const int code = LoadBenchTimes(files[0], &baseline)) return code;
  if (const int code = LoadBenchTimes(files[1], &current)) return code;

  size_t compared = 0, regressions = 0, missing = 0;
  for (const auto& [name, current_ns] : current) {
    const auto it = baseline.find(name);
    if (it == baseline.end()) {
      ++missing;
      std::printf("  MISSING   %-40s %12.1f ns  (no baseline entry)\n",
                  name.c_str(), current_ns);
      continue;
    }
    ++compared;
    const double baseline_ns = it->second;
    const double ratio =
        baseline_ns > 0.0 ? current_ns / baseline_ns
                          : (current_ns > 0.0 ? std::numeric_limits<double>::infinity() : 1.0);
    const bool regressed = current_ns > baseline_ns * (1.0 + tolerance);
    if (regressed) ++regressions;
    std::printf("  %-9s %-40s %12.1f -> %12.1f ns  (%+.1f%%)\n",
                regressed ? "REGRESSED" : "ok", name.c_str(), baseline_ns,
                current_ns, (ratio - 1.0) * 100.0);
  }
  if (compared == 0 && missing == 0) {
    std::fprintf(stderr,
                 "no common benchmarks between %s and %s — nothing gated\n",
                 files[0].c_str(), files[1].c_str());
    return kExitUsage;
  }
  std::printf("compared %zu benchmark(s), tolerance %.0f%%: %zu regression(s), "
              "%zu missing from the baseline\n",
              compared, tolerance * 100.0, regressions, missing);
  if (missing > 0) {
    std::fprintf(stderr, "%zu benchmark(s) of %s have no entry in %s\n",
                 missing, files[1].c_str(), files[0].c_str());
  }
  return regressions == 0 && missing == 0 ? kExitOk : kExitRegression;
}

/// Splits a '|'-separated attribute list ("iphone 4s|black") into
/// entity values. A lone empty string still yields one empty value, so
/// `--left '|'` is two empty attributes, not zero.
std::vector<std::string> SplitValues(const std::string& text) {
  std::vector<std::string> values;
  size_t start = 0;
  while (true) {
    const size_t bar = text.find('|', start);
    if (bar == std::string::npos) {
      values.push_back(text.substr(start));
      return values;
    }
    values.push_back(text.substr(start, bar - start));
    start = bar + 1;
  }
}

/// Lint-safe millisecond sleep for the retry backoff (no chrono clocks).
void SleepMs(int ms) { ::poll(nullptr, 0, ms); }

/// One attempt against the server: connect, send, await the response
/// line within `timeout_ms`. Outcomes the caller tells apart:
///  - Ok + response filled: the server answered (the answer itself may
///    carry an application error);
///  - IoError: connect failure / timeout / torn connection.
Status QueryOnce(const std::string& socket_path,
                 const serve::Request& request, int timeout_ms,
                 serve::Response* response) {
  Result<int> fd = serve::ConnectUnix(socket_path);
  WYM_RETURN_IF_ERROR(fd.status());
  serve::LineChannel channel(fd.value());
  WYM_RETURN_IF_ERROR(channel.WriteLine(serve::RenderRequest(request)));
  std::string line;
  bool eof = false;
  bool timed_out = false;
  WYM_RETURN_IF_ERROR(channel.ReadLine(&line, timeout_ms, &eof, &timed_out));
  if (eof) return Status::IoError("server closed connection unanswered");
  if (timed_out) {
    return Status::IoError("no response within " +
                           std::to_string(timeout_ms) + "ms");
  }
  Result<serve::Response> parsed = serve::ParseResponse(line);
  WYM_RETURN_IF_ERROR(parsed.status().Annotate("malformed response"));
  *response = std::move(parsed).value();
  return Status::Ok();
}

/// `query`: one request against a running wym_serve, with bounded
/// retries. Retry policy is deliberately narrow: only connect failures
/// and ResourceExhausted sheds are retried (both mean "the server never
/// did the work"); every other answer — including DeadlineExceeded and
/// Corruption — is an application outcome, reported once. Backoff is
/// capped exponential and deterministic (no jitter source in this
/// codebase by design).
int CmdQuery(const Flags& args) {
  const std::string socket_path = args.Get("socket");
  if (socket_path.empty()) {
    std::fprintf(stderr, "--socket <path> is required\n");
    return kExitUsage;
  }

  serve::Request request;
  const std::string op = args.Get("op", "predict");
  if (op == "ping") {
    request.op = serve::Request::Op::kPing;
  } else if (op == "predict") {
    request.op = serve::Request::Op::kPredict;
  } else if (op == "stats") {
    request.op = serve::Request::Op::kStats;
  } else if (op == "list_models") {
    request.op = serve::Request::Op::kListModels;
  } else if (op == "load_model") {
    request.op = serve::Request::Op::kLoadModel;
  } else if (op == "retire_model") {
    request.op = serve::Request::Op::kRetireModel;
  } else if (op == "shutdown") {
    request.op = serve::Request::Op::kShutdown;
  } else if (op == "debug_sleep") {
    request.op = serve::Request::Op::kDebugSleep;
  } else {
    std::fprintf(stderr, "unknown --op '%s'\n", op.c_str());
    return kExitUsage;
  }
  request.id = args.Get("id", "cli");
  request.model = args.Get("model");
  request.explain = args.Has("explain");
  request.deadline_ms = args.GetUint("deadline-ms", 0);
  request.name = args.Get("name");
  request.path = args.Get("path");
  request.sleep_ms = args.GetUint("sleep-ms", 0);
  if (request.op == serve::Request::Op::kPredict) {
    if (!args.Has("left") || !args.Has("right")) {
      std::fprintf(stderr, "predict needs --left 'a|b' and --right 'a|b'\n");
      return kExitUsage;
    }
    data::EmRecord pair;
    pair.left.values = SplitValues(args.Get("left"));
    pair.right.values = SplitValues(args.Get("right"));
    request.pairs.push_back(std::move(pair));
  }

  const int timeout_ms =
      static_cast<int>(args.GetUint("timeout-ms", 5000, kMaxInt));
  const int retries = static_cast<int>(args.GetUint("retries", 3, kMaxInt));

  serve::Response response;
  Status last = Status::Ok();
  for (int attempt = 0; attempt <= retries; ++attempt) {
    if (attempt > 0) {
      // 100ms, 200ms, 400ms, ... capped at 2s.
      int backoff_ms = 100;
      for (int i = 1; i < attempt && backoff_ms < 2000; ++i) backoff_ms *= 2;
      SleepMs(backoff_ms < 2000 ? backoff_ms : 2000);
    }
    last = QueryOnce(socket_path, request, timeout_ms, &response);
    if (!last.ok()) continue;  // Connect failure / timeout: retryable.
    if (response.status.code() == Status::Code::kResourceExhausted) {
      last = response.status;  // Shed: the server never did the work.
      continue;
    }
    break;  // Answered (success or application error): report it.
  }
  if (!last.ok() &&
      (last.code() == Status::Code::kIoError ||
       last.code() == Status::Code::kResourceExhausted)) {
    std::fprintf(stderr, "query failed after %d attempt(s): %s\n",
                 retries + 1, last.ToString().c_str());
    return kExitIo;
  }

  if (args.Has("json")) {
    std::printf("%s\n", serve::RenderResponse(response).c_str());
  } else if (!response.status.ok()) {
    std::fprintf(stderr, "%s\n", response.status.ToString().c_str());
  } else if (request.op == serve::Request::Op::kPredict) {
    for (const serve::PairResult& result : response.results) {
      std::printf("prediction %d  probability %.6f%s\n", result.prediction,
                  result.probability, result.cached ? "  (cached)" : "");
      if (!result.explanation_json.empty()) {
        std::printf("%s\n", result.explanation_json.c_str());
      }
    }
  } else if (!response.payload_json.empty()) {
    std::printf("%s\n", response.payload_json.c_str());
  } else {
    std::printf("ok\n");
  }
  return StatusExit(response.status);
}

/// Numeric field lookup in a parsed stats/window object; absent or
/// non-numeric members read as `fallback` so `top` degrades instead of
/// crashing when pointed at an older server.
double NumberField(const obs::JsonValue& object, const char* key,
                   double fallback) {
  const obs::JsonValue* value = object.Find(key);
  return (value != nullptr && value->IsNumber()) ? value->number : fallback;
}

/// `top`: human-oriented live view of a running wym_serve, built
/// entirely on the public stats op — one line of queue/cache state plus
/// one line per telemetry window. Repeats --count times so an operator
/// can watch a deploy settle without a watch(1) wrapper.
int CmdTop(const Flags& args) {
  const std::string socket_path = args.Get("socket");
  if (socket_path.empty()) {
    std::fprintf(stderr, "--socket <path> is required\n");
    return kExitUsage;
  }
  const int count = static_cast<int>(args.GetUint("count", 1, kMaxInt));
  const int interval_ms =
      static_cast<int>(args.GetUint("interval-ms", 1000, kMaxInt));
  const int timeout_ms =
      static_cast<int>(args.GetUint("timeout-ms", 5000, kMaxInt));

  serve::Request request;
  request.op = serve::Request::Op::kStats;
  request.id = args.Get("id", "top");

  for (int i = 0; i < count; ++i) {
    if (i > 0) SleepMs(interval_ms);
    serve::Response response;
    const Status queried =
        QueryOnce(socket_path, request, timeout_ms, &response);
    if (!queried.ok()) {
      std::fprintf(stderr, "top: %s\n", queried.ToString().c_str());
      return kExitIo;
    }
    if (!response.status.ok()) return StatusExit(response.status);

    obs::JsonValue stats;
    std::string error;
    if (!obs::ParseJson(response.payload_json, &stats, &error)) {
      std::fprintf(stderr, "top: malformed stats payload: %s\n",
                   error.c_str());
      return kExitCorruption;
    }
    const obs::JsonValue* draining = stats.Find("draining");
    std::printf("queue %zu/%zu  in_flight %zu  cache %zu/%zu%s\n",
                static_cast<size_t>(NumberField(stats, "queue_depth", 0)),
                static_cast<size_t>(NumberField(stats, "queue_bound", 0)),
                static_cast<size_t>(NumberField(stats, "in_flight", 0)),
                static_cast<size_t>(
                    stats.Find("cache") != nullptr
                        ? NumberField(*stats.Find("cache"), "entries", 0)
                        : 0),
                static_cast<size_t>(
                    stats.Find("cache") != nullptr
                        ? NumberField(*stats.Find("cache"), "capacity", 0)
                        : 0),
                (draining != nullptr && draining->IsBool() &&
                 draining->boolean)
                    ? "  DRAINING"
                    : "");
    const obs::JsonValue* windows = stats.Find("windows");
    if (windows == nullptr || !windows->IsObject()) {
      std::printf("  (no windows: server running without telemetry)\n");
    } else {
      for (const auto& [label, window] : windows->object) {
        if (!window.IsObject()) continue;
        std::printf(
            "  %-4s qps %8.3f  shed %5.1f%%  cache-hit %5.1f%%  "
            "p50 %.2fms  p95 %.2fms  p99 %.2fms\n",
            label.c_str(), NumberField(window, "qps", 0.0),
            NumberField(window, "shed_rate", 0.0) * 100.0,
            NumberField(window, "cache_hit_rate", 0.0) * 100.0,
            NumberField(window, "p50_ns", 0.0) / 1e6,
            NumberField(window, "p95_ns", 0.0) / 1e6,
            NumberField(window, "p99_ns", 0.0) / 1e6);
      }
    }
    std::fflush(stdout);
  }
  return kExitOk;
}

/// `tail`: print the last N lines of a request journal, optionally
/// following appends. The follow loop re-reads from a byte offset and
/// only emits complete (newline-terminated) lines, so a record being
/// written mid-poll is never shown torn; a file that shrank (rotation)
/// resets the offset and replays from the new head.
int CmdTail(const Flags& args) {
  const std::string path = args.Get("file");
  if (path.empty()) {
    std::fprintf(stderr, "--file <journal> is required\n");
    return kExitUsage;
  }
  const size_t want = static_cast<size_t>(args.GetUint("lines", 10));

  std::string text;
  const Status read = io::ReadFileToString(path, &text);
  if (!read.ok()) return StatusExit(read);
  std::vector<std::string> lines;
  size_t offset = 0;
  while (offset < text.size()) {
    const size_t newline = text.find('\n', offset);
    if (newline == std::string::npos) break;  // Incomplete final record.
    lines.push_back(text.substr(offset, newline - offset));
    offset = newline + 1;
  }
  for (size_t i = lines.size() > want ? lines.size() - want : 0;
       i < lines.size(); ++i) {
    std::printf("%s\n", lines[i].c_str());
  }
  std::fflush(stdout);
  if (!args.Has("follow")) return kExitOk;

  const uint64_t for_ms = args.GetUint("for-ms", 0);
  uint64_t waited_ms = 0;
  while (for_ms == 0 || waited_ms < for_ms) {
    SleepMs(200);
    waited_ms += 200;
    std::string current;
    if (!io::ReadFileToString(path, &current).ok()) {
      continue;  // Brief absence during rotation: retry.
    }
    if (current.size() < offset) offset = 0;  // Rotated under us.
    size_t position = offset;
    while (position < current.size()) {
      const size_t newline = current.find('\n', position);
      if (newline == std::string::npos) break;
      std::printf("%.*s\n", static_cast<int>(newline - position),
                  current.c_str() + position);
      position = newline + 1;
    }
    if (position != offset) std::fflush(stdout);
    offset = position;
  }
  return kExitOk;
}

}  // namespace

int CmdProfile(const Flags& args) {
  const data::Dataset dataset = LoadData(args);
  std::printf("%s", data::RenderProfile(data::ProfileDataset(dataset)).c_str());
  return 0;
}

int CmdStats(const Flags& args) {
  const data::Dataset dataset = LoadData(args);
  const data::Split split = data::DefaultSplit(dataset, Seed(args));
  core::WymModel model(ConfigFromArgs(args));
  if (args.Has("model")) {
    auto loaded = core::WymModel::LoadFromFile(args.Get("model"));
    if (!loaded.ok()) {
      return StatusExit(loaded.status().Annotate("cannot load model"));
    }
    model = std::move(loaded).value();
  } else {
    model.Fit(split.train, split.validation);
  }
  const explain::GlobalAttribution report =
      explain::ComputeGlobalAttribution(model, split.test);
  std::printf("%s", explain::RenderGlobalAttribution(report,
                                                     dataset.schema).c_str());
  // Pipeline metrics accumulated during this run (fit + attribution):
  // counters, gauges and latency histograms from the obs registry.
  std::printf("\n%s",
              obs::RenderMetrics(obs::Registry::Global().Snapshot()).c_str());
  return 0;
}

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  // compare-reports takes positional file arguments, which the shared
  // --key/value parser rejects; dispatch it before constructing Flags.
  if (command == "compare-reports") return CmdCompareReports(argc, argv);
  const Flags args(argc, argv, /*first=*/2);
  if (command == "list") return CmdList();
  if (command == "generate") return CmdGenerate(args);
  if (command == "train-eval") return CmdTrainEval(args);
  if (command == "explain") return CmdExplain(args);
  if (command == "stats") return CmdStats(args);
  if (command == "profile") return CmdProfile(args);
  if (command == "verify") return CmdVerify(args);
  if (command == "validate-report") return CmdValidateReport(args);
  if (command == "query") return CmdQuery(args);
  if (command == "top") return CmdTop(args);
  if (command == "tail") return CmdTail(args);
  return Usage();
}
