// Google-benchmark micro-benchmarks for the pipeline hot paths: the
// stable-marriage assignment, the semantic encoder, tokenization,
// Jaro-Winkler, and full decision-unit generation.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "core/tokenized_record.h"
#include "core/unit_generator.h"
#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/csv.h"
#include "data/split.h"
#include "obs/event_log.h"
#include "obs/recorder.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "la/kernels.h"
#include "la/vector_ops.h"
#include "nn/mlp.h"
#include "embedding/semantic_encoder.h"
#include "matching/stable_marriage.h"
#include "ml/boosting.h"
#include "ml/knn.h"
#include "text/string_metrics.h"
#include "text/tokenizer.h"
#include "util/random.h"

namespace {

using namespace wym;

void BM_StableMarriage(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  la::Matrix sim(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) sim.At(i, j) = rng.Uniform();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::StableMarriage(sim, 0.5));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_StableMarriage)->Range(4, 256)->Complexity();

void BM_Tokenizer(benchmark::State& state) {
  const text::Tokenizer tokenizer;
  const std::string value =
      "sony digital camera with lens kit dslra200w 10.2 mp, the deluxe";
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(value));
  }
}
BENCHMARK(BM_Tokenizer);

void BM_JaroWinkler(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        text::JaroWinklerSimilarity("dslra200w", "dslra300k"));
  }
}
BENCHMARK(BM_JaroWinkler);

/// A siamese encoder fitted on a small product corpus that contains
/// every token of kEncodeTokens, so each of them has a table row.
const std::vector<std::string> kEncodeTokens = {
    "sony", "digital", "camera", "lens", "kit", "dslra200w",
    "37.63", "deluxe", "compact", "optical"};

embedding::SemanticEncoder FittedSiameseEncoder() {
  embedding::SemanticEncoder encoder;  // kSiamese by default.
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 8; ++i) {
    corpus.push_back({"sony", "digital", "camera", "dslra200w", "37.63"});
    corpus.push_back({"deluxe", "compact", "optical", "lens", "kit"});
    corpus.push_back({"sony", "optical", "lens", "kit", "digital"});
  }
  encoder.Fit(corpus);
  const la::Vec a = embedding::SemanticEncoder::PoolTokens(
      encoder.EncodeTokens(corpus[0]), encoder.dim());
  const la::Vec b = embedding::SemanticEncoder::PoolTokens(
      encoder.EncodeTokens(corpus[1]), encoder.dim());
  encoder.FitSiamese({{a, a}, {a, b}}, {1, 0});
  return encoder;
}

void BM_EncodeTokens(benchmark::State& state) {
  // Every token is read from the base-embedding table.
  const embedding::SemanticEncoder encoder = FittedSiameseEncoder();
  if (encoder.table_rows() < kEncodeTokens.size()) {
    state.SkipWithError("bench tokens are missing from the table");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.EncodeTokens(kEncodeTokens));
  }
}
BENCHMARK(BM_EncodeTokens);

void BM_EncodeTokens_Unseen(benchmark::State& state) {
  // The same description shape with no token in the table: every base
  // embedding is computed on the fly.
  const embedding::SemanticEncoder encoder = FittedSiameseEncoder();
  std::vector<std::string> tokens;
  for (const std::string& token : kEncodeTokens) tokens.push_back(token + "x");
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.EncodeTokens(tokens));
  }
}
BENCHMARK(BM_EncodeTokens_Unseen);

void BM_Dot(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  la::Vec a(n, 0.0f), b(n, 0.0f);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(rng.Uniform(-1, 1));
    b[i] = static_cast<float>(rng.Uniform(-1, 1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::kernels::Dot(a.data(), b.data(), n));
  }
}
BENCHMARK(BM_Dot)->Arg(48)->Arg(72)->Arg(256);

void BM_SimilarityMatrix(benchmark::State& state) {
  // Typical decision-unit shape: two ~token-count row sets of unit
  // embedding rows, one A * B^T kernel call.
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t dim = 72;
  Rng rng(13);
  la::Vec left(rows * dim), right(rows * dim);
  for (size_t i = 0; i < rows * dim; ++i) {
    left[i] = static_cast<float>(rng.Uniform(-1, 1));
    right[i] = static_cast<float>(rng.Uniform(-1, 1));
  }
  la::Vec packed_left, packed_right;
  la::PackUnitRows(left.data(), rows, dim, &packed_left);
  la::PackUnitRows(right.data(), rows, dim, &packed_right);
  std::vector<double> out(rows * rows);
  for (auto _ : state) {
    la::kernels::SimilarityMatrix(packed_left.data(), rows,
                                  packed_right.data(), rows, dim, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetComplexityN(static_cast<int64_t>(rows));
}
BENCHMARK(BM_SimilarityMatrix)->Range(4, 64)->Complexity();

void BM_SimilarityMatrixDim(benchmark::State& state) {
  // Dim sweep at 64 rows; BM_SimilarityMatrix/64 covers dim 72.
  const size_t rows = 64;
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(13);
  la::Vec left(rows * dim), right(rows * dim);
  for (size_t i = 0; i < rows * dim; ++i) {
    left[i] = static_cast<float>(rng.Uniform(-1, 1));
    right[i] = static_cast<float>(rng.Uniform(-1, 1));
  }
  la::Vec packed_left, packed_right;
  la::PackUnitRows(left.data(), rows, dim, &packed_left);
  la::PackUnitRows(right.data(), rows, dim, &packed_right);
  std::vector<double> out(rows * rows);
  for (auto _ : state) {
    la::kernels::SimilarityMatrix(packed_left.data(), rows,
                                  packed_right.data(), rows, dim, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SimilarityMatrixDim)->Arg(48)->Arg(256);

void BM_UnitGeneration_Cached(benchmark::State& state) {
  // Decision units of one realistic record from the product benchmark,
  // fully encoded: one similarity-matrix kernel call over the encoder's
  // unit rows, then the four stable-marriage phases. The name stays so
  // that check.sh perf-report's filter and the BENCH_micro.json baseline
  // entry keep gating this path.
  const data::Dataset dataset = data::GenerateById("S-WA", 42, 0.1);
  const text::Tokenizer tokenizer;
  embedding::SemanticEncoderOptions options;
  options.mode = embedding::EncoderMode::kPretrained;
  embedding::SemanticEncoder encoder(options);
  encoder.Fit({});
  core::TokenizedRecord record = core::TokenizeRecord(
      dataset.records.front(), dataset.schema, tokenizer);
  core::EncodeEntity(encoder, &record.left);
  core::EncodeEntity(encoder, &record.right);
  const core::DecisionUnitGenerator generator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.Generate(record.left, record.right,
                                                dataset.schema.size()));
  }
}
BENCHMARK(BM_UnitGeneration_Cached);

void BM_MlpPredict(benchmark::State& state) {
  Rng rng(4);
  la::Matrix x(64, 96);
  std::vector<double> y(64);
  for (size_t i = 0; i < 64; ++i) {
    for (size_t j = 0; j < 96; ++j) x.At(i, j) = rng.Uniform(-1, 1);
    y[i] = rng.Uniform(-1, 1);
  }
  nn::MlpOptions options;
  options.hidden = {64, 32};
  options.epochs = 2;
  nn::Mlp mlp(options);
  mlp.Fit(x, y);
  const std::vector<double> row = x.RowVector(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.Predict(row));
  }
}
BENCHMARK(BM_MlpPredict);

// One KNN match probability at the er_tables model's shape: 840
// training rows x 42 features, k = 5, distance-weighted. Queries cycle
// through 64 fixed rows.
void BM_KnnPredict(benchmark::State& state) {
  constexpr size_t kRows = 840;
  constexpr size_t kFeatures = 42;
  constexpr size_t kQueries = 64;
  Rng rng(5);
  la::Matrix x(kRows, kFeatures);
  std::vector<int> y(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    for (size_t j = 0; j < kFeatures; ++j) x.At(i, j) = rng.Uniform(-1, 1);
    y[i] = rng.Uniform(0, 1) < 0.2 ? 1 : 0;
  }
  std::vector<std::vector<double>> queries(kQueries);
  for (auto& query : queries) {
    query.resize(kFeatures);
    for (double& v : query) v = rng.Uniform(-1, 1);
  }
  ml::KNearestNeighbors knn;
  knn.Fit(x, y);
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.PredictProba(queries[q]));
    q = (q + 1) % kQueries;
  }
}
BENCHMARK(BM_KnnPredict);

// One GBM fit (60 depth-3 trees, the pool member's options) at the S-WA
// pool shape: 840 rows x 42 features. Half of the features take one of
// eight levels, like the count-style unit features, so the split search
// meets heavy value ties; about a quarter of the labels are matches.
void BM_GbmFit(benchmark::State& state) {
  constexpr size_t kRows = 840;
  constexpr size_t kFeatures = 42;
  Rng rng(9);
  la::Matrix x(kRows, kFeatures);
  std::vector<int> y(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    for (size_t j = 0; j < kFeatures; ++j) {
      x.At(i, j) = j % 2 == 0 ? static_cast<double>(rng.Index(8))
                              : rng.Uniform(-1, 1);
    }
    const double signal = x.At(i, 0) / 8.0 + x.At(i, 1) + rng.Uniform(-1, 1);
    y[i] = signal > 1.1 ? 1 : 0;
  }
  for (auto _ : state) {
    ml::GradientBoostingClassifier gbm;
    gbm.Fit(x, y);
    benchmark::DoNotOptimize(gbm);
  }
}
// Its own minimum time: at perf-report's 0.01 s one cold 23 ms
// iteration would be the whole sample.
BENCHMARK(BM_GbmFit)->Unit(benchmark::kMillisecond)->MinTime(0.2);

// One record's relevance scoring at the T-AB shape: 39 decision units x
// 112 features (mean ++ |diff| of the 56-d WymConfig embeddings) through
// the scorer's 112 -> 64 -> 32 -> 1 network in a single batched
// PredictRows pass.
void BM_MlpPredictRows(benchmark::State& state) {
  constexpr size_t kUnits = 39;
  constexpr size_t kFeatures = 112;
  Rng rng(4);
  la::Matrix x(64, kFeatures);
  std::vector<double> y(64);
  for (size_t i = 0; i < 64; ++i) {
    for (size_t j = 0; j < kFeatures; ++j) x.At(i, j) = rng.Uniform(-1, 1);
    y[i] = rng.Uniform(-1, 1);
  }
  nn::MlpOptions options;
  options.hidden = {64, 32};
  options.epochs = 2;
  nn::Mlp mlp(options);
  mlp.Fit(x, y);
  std::vector<double> out(kUnits);
  for (auto _ : state) {
    mlp.PredictRows(x.data().data(), kUnits, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kUnits));
}
BENCHMARK(BM_MlpPredictRows);

// One epoch of relevance-scorer training at the served shape: 2048 units
// x 112 features through 112 -> 64 -> 32 -> 1 in minibatches of 128 (the
// WymConfig scorer options), on the global pool.
void BM_MlpFit(benchmark::State& state) {
  constexpr size_t kRows = 2048;
  constexpr size_t kFeatures = 112;
  Rng rng(6);
  la::Matrix x(kRows, kFeatures);
  std::vector<double> y(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    for (size_t j = 0; j < kFeatures; ++j) x.At(i, j) = rng.Uniform(-1, 1);
    y[i] = rng.Uniform(-1, 1);
  }
  nn::MlpOptions options;
  options.hidden = {64, 32};
  options.epochs = 1;
  options.batch_size = 128;
  for (auto _ : state) {
    nn::Mlp mlp(options);
    mlp.Fit(x, y);
    benchmark::DoNotOptimize(mlp);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kRows));
}
BENCHMARK(BM_MlpFit)->UseRealTime();

void BM_CsvRoundTrip(benchmark::State& state) {
  const data::Dataset dataset = data::GenerateById("S-FZ", 42, 0.2);
  for (auto _ : state) {
    const std::string csv = data::DatasetToCsv(dataset);
    benchmark::DoNotOptimize(data::DatasetFromCsv(csv, "bench"));
  }
}
BENCHMARK(BM_CsvRoundTrip);

void BM_GenerateDataset(benchmark::State& state) {
  const data::DatasetSpec* spec = data::FindSpec("S-WA");
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::GenerateDataset(*spec, 42, 0.1));
  }
}
BENCHMARK(BM_GenerateDataset);

// --- Serving-path telemetry overhead -------------------------------
// BM_ServePredict_TelemetryOff vs _TelemetryOn is the <=2% overhead
// gate from DESIGN.md "Telemetry": the On variant journals every
// request and records it into the flight-recorder ring; everything
// else (model, pairs, cache-off compute) is identical.

/// Lazily-built serving fixture: one fitted model registered under
/// "default" plus the test pairs to predict. Built on first use so
/// `--benchmark_filter` runs that skip the serve benchmarks never pay
/// the fit.
struct ServeBenchEnv {
  data::Dataset dataset;
  data::Split split;
  serve::ModelRegistry registry;
  bool ok = false;

  ServeBenchEnv()
      : dataset(data::GenerateById("S-FZ", 42, 0.2)),
        split(data::DefaultSplit(dataset, 42)) {
    core::WymModel model;
    model.Fit(split.train, split.validation);
    const std::string path = "/tmp/wym_bench_serve.model.wym";
    if (!model.SaveToFile(path).ok()) return;
    ok = registry.LoadModel("default", path).ok();
    std::remove(path.c_str());
  }

  static ServeBenchEnv& Get() {
    static ServeBenchEnv env;
    return env;
  }
};

void ServePredictLoop(benchmark::State& state, bool telemetry) {
  ServeBenchEnv& env = ServeBenchEnv::Get();
  if (!env.ok) {
    state.SkipWithError("serve fixture failed to build");
    return;
  }
  std::unique_ptr<wym::obs::EventLog> journal;
  std::unique_ptr<wym::obs::FlightRecorder> recorder;
  const std::string journal_path = "/tmp/wym_bench_serve.journal.jsonl";
  serve::ServiceOptions options;
  options.auto_dispatch = false;
  options.cache_entries = 0;  // Compute-dominated: every pair is a miss.
  if (telemetry) {
    wym::obs::EventLog::Options journal_options;
    journal_options.path = journal_path;
    journal = std::make_unique<wym::obs::EventLog>(journal_options);
    std::string error;
    if (!journal->Open(&error)) {
      state.SkipWithError(error.c_str());
      return;
    }
    recorder = std::make_unique<wym::obs::FlightRecorder>(256);
    options.journal = journal.get();
    options.recorder = recorder.get();
  }
  serve::MatcherService service(&env.registry, options);

  size_t i = 0;
  for (auto _ : state) {
    serve::Request request;
    request.op = serve::Request::Op::kPredict;
    request.id = "bench";
    request.pairs.push_back(
        env.split.test.records[i % env.split.test.size()]);
    ++i;
    bool answered = false;
    const wym::Status admitted = service.Admit(
        std::move(request),
        [&answered](const serve::Response&) { answered = true; });
    (void)admitted;
    service.ProcessQueued();
    benchmark::DoNotOptimize(answered);
  }
  if (journal != nullptr) {
    journal->Close();
    std::remove(journal_path.c_str());
    std::remove((journal_path + ".1").c_str());
  }
}

void BM_ServePredict_TelemetryOff(benchmark::State& state) {
  ServePredictLoop(state, false);
}
BENCHMARK(BM_ServePredict_TelemetryOff);

void BM_ServePredict_TelemetryOn(benchmark::State& state) {
  ServePredictLoop(state, true);
}
BENCHMARK(BM_ServePredict_TelemetryOn);

void BM_JournalAppend(benchmark::State& state) {
  // The raw journal hot path alone: render + rotate check + fwrite +
  // flush for one record.
  wym::obs::EventLog::Options options;
  options.path = "/tmp/wym_bench_journal.jsonl";
  wym::obs::EventLog journal(options);
  std::string error;
  if (!journal.Open(&error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  wym::obs::RequestRecord record;
  wym::obs::SetRecordField(record.client_id, sizeof(record.client_id),
                           "bench");
  wym::obs::SetRecordField(record.op, sizeof(record.op), "predict");
  wym::obs::SetRecordField(record.model, sizeof(record.model), "default#1");
  record.pairs = 1;
  record.batches = 1;
  uint64_t sequence = 0;
  for (auto _ : state) {
    record.sequence = ++sequence;
    journal.Append(record);
  }
  journal.Close();
  std::remove(options.path.c_str());
  std::remove((options.path + ".1").c_str());
}
BENCHMARK(BM_JournalAppend);

}  // namespace

namespace {

/// Console reporter that also captures per-benchmark results for the
/// --json perf report (wym-bench-report/v1).
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit CaptureReporter(wym::bench::PerfReport* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type == Run::RT_Aggregate || run.error_occurred) continue;
      // GetAdjustedRealTime is in the benchmark's display unit.
      const double time_ns = run.GetAdjustedRealTime() * 1e9 /
                             benchmark::GetTimeUnitMultiplier(run.time_unit);
      report_->AddBenchmark(run.benchmark_name(), time_ns,
                            static_cast<uint64_t>(run.iterations));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  wym::bench::PerfReport* report_;
};

}  // namespace

// Custom main (instead of benchmark::benchmark_main) so the harness can
// strip --json[=PATH] before google-benchmark parses flags, then emit
// the machine-readable report next to the console output.
int main(int argc, char** argv) {
  wym::bench::PerfReport report =
      wym::bench::PerfReport::FromArgs("micro", &argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return report.Write() ? 0 : 1;
}
