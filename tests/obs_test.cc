// Tests for the observability layer (src/obs): metrics registry,
// span tracing + trace_event export, the bundled JSON parser and the
// report validators — plus the non-perturbation contract: tracing a
// run must not change a single output byte.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/split.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "util/parallel.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using namespace wym;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------------
// Counters / gauges / histograms
// ---------------------------------------------------------------------

TEST(CounterTest, ConcurrentIncrementsMergeToExactTotal) {
  // WYM_METRICS defaults to on; the suite depends on that.
  ASSERT_TRUE(obs::MetricsEnabled());

  obs::Counter& counter =
      obs::Registry::Global().GetCounter("test.concurrent_increments");
  counter.Reset();

  util::ThreadPool pool(4);
  constexpr size_t kIterations = 200000;
  util::ParallelFor(
      kIterations, 1000,
      [&](size_t begin, size_t end, size_t) {
        for (size_t i = begin; i < end; ++i) counter.Add(1);
      },
      &pool);
  EXPECT_EQ(counter.Value(), kIterations);

  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, AddWithDeltaAccumulates) {
  obs::Counter& counter = obs::Registry::Global().GetCounter("test.delta");
  counter.Reset();
  counter.Add(7);
  counter.Add(35);
  counter.Add();  // Default delta 1.
  EXPECT_EQ(counter.Value(), 43u);
}

TEST(GaugeTest, TracksValueAndHighWaterMark) {
  obs::Gauge& gauge = obs::Registry::Global().GetGauge("test.gauge");
  gauge.Reset();
  gauge.Add(3);
  gauge.Add(5);
  gauge.Add(-6);
  EXPECT_EQ(gauge.Value(), 2);
  EXPECT_EQ(gauge.Max(), 8);
  gauge.Set(1);
  EXPECT_EQ(gauge.Value(), 1);
  EXPECT_EQ(gauge.Max(), 8);  // Max never decreases.
}

TEST(HistogramTest, CountSumAndPercentiles) {
  obs::Histogram& hist =
      obs::Registry::Global().GetHistogram("test.histogram");
  hist.Reset();
  // 100 samples of 100ns, 10 of ~100us: p50 lands in the bucket
  // holding 100 ([64, 127]), p95 likewise, p99+ in the big bucket.
  for (int i = 0; i < 100; ++i) hist.Record(100);
  for (int i = 0; i < 10; ++i) hist.Record(100000);

  const obs::HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 110u);
  EXPECT_EQ(snap.sum, 100u * 100u + 10u * 100000u);
  EXPECT_NEAR(snap.Mean(), static_cast<double>(snap.sum) / 110.0, 1e-9);

  const double p50 = snap.Percentile(0.50);
  EXPECT_GE(p50, 64.0);
  EXPECT_LE(p50, 127.0);
  const double p99 = snap.Percentile(0.99);
  EXPECT_GE(p99, 65536.0);
  EXPECT_LE(p99, 131071.0);

  // Degenerate inputs.
  EXPECT_EQ(obs::HistogramSnapshot{}.Percentile(0.5), 0.0);
  EXPECT_EQ(obs::HistogramSnapshot{}.Mean(), 0.0);
}

TEST(HistogramTest, BucketBoundsArePowersOfTwo) {
  EXPECT_EQ(obs::Histogram::BucketUpperBound(0), 1u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(1), 3u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(9), 1023u);
}

TEST(HistogramTest, ConcurrentRecordsMergeToExactCount) {
  obs::Histogram& hist =
      obs::Registry::Global().GetHistogram("test.histogram_concurrent");
  hist.Reset();
  util::ThreadPool pool(4);
  constexpr size_t kSamples = 50000;
  util::ParallelFor(
      kSamples, 500,
      [&](size_t begin, size_t end, size_t) {
        for (size_t i = begin; i < end; ++i) hist.Record(i % 1024);
      },
      &pool);
  EXPECT_EQ(hist.Snapshot().count, kSamples);
}

TEST(RegistryTest, SnapshotIsNameSortedAndResetKeepsReferences) {
  obs::Registry& registry = obs::Registry::Global();
  obs::Counter& b = registry.GetCounter("test.sorted.b");
  obs::Counter& a = registry.GetCounter("test.sorted.a");
  b.Reset();
  a.Reset();
  a.Add(1);
  b.Add(2);

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  for (size_t i = 1; i < snapshot.counters.size(); ++i) {
    EXPECT_LT(snapshot.counters[i - 1].name, snapshot.counters[i].name);
  }

  // Same name returns the same metric.
  EXPECT_EQ(&registry.GetCounter("test.sorted.a"), &a);

  registry.ResetForTest();
  EXPECT_EQ(a.Value(), 0u);  // Reference survived, value zeroed.
  a.Add(5);
  EXPECT_EQ(a.Value(), 5u);
}

TEST(RegistryTest, MetricsToJsonRoundTripsThroughOwnParser) {
  obs::Registry& registry = obs::Registry::Global();
  registry.GetCounter("test.json.counter").Reset();
  registry.GetCounter("test.json.counter").Add(9);
  registry.GetGauge("test.json.gauge").Set(4);
  registry.GetHistogram("test.json.hist").Record(1000);

  const std::string json = obs::MetricsToJson(registry.Snapshot());
  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(json, &root, &error)) << error;
  ASSERT_TRUE(root.IsObject());

  const obs::JsonValue* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  const obs::JsonValue* counter = counters->Find("test.json.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->number, 9.0);

  const obs::JsonValue* hists = root.Find("histograms");
  ASSERT_NE(hists, nullptr);
  const obs::JsonValue* hist = hists->Find("test.json.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_NE(hist->Find("p50_ns"), nullptr);
  EXPECT_NE(hist->Find("p95_ns"), nullptr);
}

TEST(RegistryTest, RenderMetricsMentionsEveryMetric) {
  obs::Registry& registry = obs::Registry::Global();
  registry.GetCounter("test.render.counter").Add(1);
  const std::string text = obs::RenderMetrics(registry.Snapshot());
  EXPECT_NE(text.find("test.render.counter"), std::string::npos);
}

// ---------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------

TEST(JsonParserTest, ParsesScalarsContainersAndEscapes) {
  obs::JsonValue v;
  std::string error;

  ASSERT_TRUE(obs::ParseJson("{\"a\":[1,2.5,-3e2],\"b\":{\"c\":true},"
                             "\"d\":null,\"e\":\"x\\n\\\"y\\u0041\"}",
                             &v, &error))
      << error;
  ASSERT_TRUE(v.IsObject());
  const obs::JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->IsArray());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[1].number, 2.5);
  EXPECT_EQ(a->array[2].number, -300.0);
  EXPECT_TRUE(v.Find("b")->Find("c")->boolean);
  EXPECT_TRUE(v.Find("d")->IsNull());
  EXPECT_EQ(v.Find("e")->string, "x\n\"yA");
}

TEST(JsonParserTest, RejectsMalformedInput) {
  obs::JsonValue v;
  std::string error;
  const char* kBad[] = {
      "",                      // Empty.
      "{",                     // Unbalanced.
      "{\"a\":1,}",            // Trailing comma.
      "{a:1}",                 // Unquoted key.
      "[1 2]",                 // Missing comma.
      "\"\\x\"",               // Bad escape.
      "{\"a\":1} trailing",    // Garbage after the value.
      "nul",                   // Truncated literal.
  };
  for (const char* text : kBad) {
    error.clear();
    EXPECT_FALSE(obs::ParseJson(text, &v, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(JsonParserTest, RejectsPathologicalNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  obs::JsonValue v;
  std::string error;
  EXPECT_FALSE(obs::ParseJson(deep, &v, &error));
}

TEST(JsonParserTest, RecordsEachValuesSourceRange) {
  const std::string text = " {\"a\": [1, 2.50] , \"b\":\"x\"} ";
  obs::JsonValue v;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(text, &v, &error)) << error;
  const auto source = [&text](const obs::JsonValue& value) {
    return text.substr(value.begin, value.end - value.begin);
  };
  EXPECT_EQ(source(v), "{\"a\": [1, 2.50] , \"b\":\"x\"}");
  EXPECT_EQ(source(*v.Find("a")), "[1, 2.50]");
  EXPECT_EQ(source(v.Find("a")->array[1]), "2.50");
  EXPECT_EQ(source(*v.Find("b")), "\"x\"");
}

// ---------------------------------------------------------------------
// JSON writing: the one string escape and the two number spellings
// ---------------------------------------------------------------------

/// Parses `json` (one JSON string value) back to its text.
std::string ParseJsonString(const std::string& json) {
  obs::JsonValue v;
  std::string error;
  EXPECT_TRUE(obs::ParseJson(json, &v, &error)) << error;
  EXPECT_TRUE(v.IsString()) << json;
  return v.string;
}

TEST(JsonWriterTest, EverySingleByteRoundTrips) {
  for (int byte = 0; byte < 256; ++byte) {
    const std::string text(1, static_cast<char>(byte));
    std::string json;
    obs::AppendJsonString(text, &json);
    EXPECT_EQ(ParseJsonString(json), text) << "byte " << byte;
  }
}

TEST(JsonWriterTest, RandomByteStringsRoundTrip) {
  std::mt19937_64 rng(20230328);
  for (int i = 0; i < 1000; ++i) {
    std::string text(rng() % 64, '\0');
    for (char& c : text) c = static_cast<char>(rng() & 0xFF);
    std::string json = "prefix ";
    obs::AppendJsonString(text, &json);
    ASSERT_EQ(json.compare(0, 7, "prefix "), 0);
    EXPECT_EQ(ParseJsonString(json.substr(7)), text) << "string " << i;
  }
}

TEST(JsonWriterTest, NumbersRoundTripExactly) {
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0,
                                0.1,
                                -1e300,
                                1e300,
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest()};
  std::mt19937_64 rng(7);
  while (values.size() < 2000) {
    const uint64_t bits = rng();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value)) values.push_back(value);
  }
  for (const double value : values) {
    std::string json;
    obs::AppendJsonNumber(value, &json);
    obs::JsonValue v;
    std::string error;
    ASSERT_TRUE(obs::ParseJson(json, &v, &error)) << json << ": " << error;
    ASSERT_TRUE(v.IsNumber()) << json;
    EXPECT_EQ(std::memcmp(&v.number, &value, sizeof(value)), 0)
        << json << " does not read back as the value written";
  }
  std::string shortest;
  obs::AppendJsonNumber(0.1, &shortest);
  EXPECT_EQ(shortest, "0.1");
}

TEST(JsonWriterTest, FixedSpellsExactlyTheRequestedDigits) {
  std::string json;
  obs::AppendJsonFixed(0.5, 6, &json);
  json += ',';
  obs::AppendJsonFixed(-0.0625, 6, &json);
  EXPECT_EQ(json, "0.500000,-0.062500");
  // Longer than any stack buffer a caller would guess at.
  char expected[400];
  std::snprintf(expected, sizeof(expected), "%.2f", -1e300);
  std::string huge;
  obs::AppendJsonFixed(-1e300, 2, &huge);
  EXPECT_EQ(huge, expected);
}

TEST(JsonWriterTest, NonFiniteNumbersAreWrittenAsZero) {
  for (const double value : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
    std::string number;
    obs::AppendJsonNumber(value, &number);
    EXPECT_EQ(number, "0");
    std::string fixed;
    obs::AppendJsonFixed(value, 6, &fixed);
    EXPECT_EQ(fixed, "0");
  }
}

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

TEST(TraceTest, NowNanosIsMonotonic) {
  const std::uint64_t a = obs::NowNanos();
  const std::uint64_t b = obs::NowNanos();
  EXPECT_LE(a, b);
}

TEST(TraceTest, SpansProduceValidTraceEventJson) {
  const std::string path = "/tmp/wym_obs_test_trace.json";
  std::remove(path.c_str());

  obs::StartTracing(path);
  ASSERT_TRUE(obs::TracingActive());
  {
    obs::SpanScope outer("test.outer");
    { WYM_SPAN("test.inner"); }
  }
  // Spans from pool workers land in per-thread buffers.
  util::ThreadPool pool(2);
  util::ParallelFor(
      8, 1,
      [](size_t, size_t, size_t) { obs::SpanScope span("test.pool_chunk"); },
      &pool);
  const std::uint64_t start = obs::NowNanos();
  obs::AppendCompleteEvent("test.manual", "test", start, 42);

  std::string error;
  ASSERT_TRUE(obs::StopTracingAndWrite(&error)) << error;
  EXPECT_FALSE(obs::TracingActive());

  const std::string text = ReadFileBytes(path);
  ASSERT_TRUE(obs::ValidateTraceJson(text, &error)) << error;

  // The tree contains our spans, with the nesting visible in ts/dur.
  obs::JsonValue root;
  ASSERT_TRUE(obs::ParseJson(text, &root, &error)) << error;
  const obs::JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  const obs::JsonValue* outer = nullptr;
  const obs::JsonValue* inner = nullptr;
  size_t pool_chunks = 0;
  for (const obs::JsonValue& event : events->array) {
    const std::string& name = event.Find("name")->string;
    if (name == "test.outer") outer = &event;
    if (name == "test.inner") inner = &event;
    if (name == "test.pool_chunk") ++pool_chunks;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(pool_chunks, 8u);
  const double outer_ts = outer->Find("ts")->number;
  const double outer_end = outer_ts + outer->Find("dur")->number;
  const double inner_ts = inner->Find("ts")->number;
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner->Find("dur")->number, outer_end + 1e-3);

  std::remove(path.c_str());
}

TEST(TraceTest, StopWithoutStartFailsCleanly) {
  ASSERT_FALSE(obs::TracingActive());
  std::string error;
  EXPECT_FALSE(obs::StopTracingAndWrite(&error));
  EXPECT_FALSE(error.empty());
}

TEST(TraceTest, SpansAreFreeWhenInactive) {
  ASSERT_FALSE(obs::TracingActive());
  // Just exercise the disabled path; nothing to assert beyond "no
  // crash, no activation".
  for (int i = 0; i < 1000; ++i) {
    obs::SpanScope span("test.disabled");
  }
  EXPECT_FALSE(obs::TracingActive());
}

// ---------------------------------------------------------------------
// Validators
// ---------------------------------------------------------------------

TEST(ValidatorTest, AcceptsMinimalBenchReport) {
  const std::string report =
      "{\"schema\":\"wym-bench-report/v1\",\"bench\":\"t\",\"scale\":1,"
      "\"seed\":42,\"benchmarks\":[{\"name\":\"BM_X\",\"time_ns\":12.5,"
      "\"iterations\":100}],\"stages\":[],\"rates\":[],"
      "\"metrics\":{\"counters\":{},\"gauges\":{},\"histograms\":{}}}";
  std::string error;
  EXPECT_TRUE(obs::ValidateBenchReportJson(report, &error)) << error;
}

TEST(ValidatorTest, RejectsBadBenchReports) {
  std::string error;
  // Wrong schema marker.
  EXPECT_FALSE(obs::ValidateBenchReportJson(
      "{\"schema\":\"other/v9\",\"bench\":\"t\",\"benchmarks\":[],"
      "\"metrics\":{\"counters\":{},\"gauges\":{},\"histograms\":{}}}",
      &error));
  // Missing metrics.
  EXPECT_FALSE(obs::ValidateBenchReportJson(
      "{\"schema\":\"wym-bench-report/v1\",\"bench\":\"t\","
      "\"benchmarks\":[]}",
      &error));
  // Not JSON at all.
  EXPECT_FALSE(obs::ValidateBenchReportJson("not json", &error));
}

TEST(ValidatorTest, RejectsBadTraces) {
  std::string error;
  // traceEvents must be an array...
  EXPECT_FALSE(obs::ValidateTraceJson("{\"traceEvents\":1}", &error));
  // ...of complete events with the required members.
  EXPECT_FALSE(obs::ValidateTraceJson(
      "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\"}]}", &error));
  EXPECT_FALSE(obs::ValidateTraceJson("[]", &error));
}

// ---------------------------------------------------------------------
// Stopwatch (the span clock)
// ---------------------------------------------------------------------

TEST(StopwatchTest, ElapsedNanosAndLapsAreConsistent) {
  Stopwatch watch;
  const std::uint64_t lap1 = watch.LapNanos();
  const std::uint64_t lap2 = watch.LapNanos();
  const std::uint64_t total = watch.ElapsedNanos();
  // Laps partition the elapsed time: their sum cannot exceed a total
  // read after both.
  EXPECT_LE(lap1 + lap2, total);
  // Elapsed* accessors agree on the unit of record.
  const double seconds = watch.ElapsedSeconds();
  EXPECT_GE(seconds, static_cast<double>(total) * 1e-9);
  watch.Reset();
  EXPECT_LT(watch.ElapsedNanos(), 1000000000ull);  // Fresh epoch.
}

// ---------------------------------------------------------------------
// Non-perturbation: tracing must not change any output byte.
// ---------------------------------------------------------------------

TEST(NonPerturbationTest, TracedRunIsByteIdenticalToUntracedRun) {
  const data::Dataset dataset = data::GenerateById("S-FZ", 42, 0.2);
  const data::Split split = data::DefaultSplit(dataset, 42);

  // Untraced run.
  ASSERT_FALSE(obs::TracingActive());
  core::WymModel plain;
  plain.Fit(split.train, split.validation);
  const std::vector<double> plain_probs =
      plain.PredictProbaBatch(split.test, static_cast<util::ThreadPool*>(nullptr));
  const std::string plain_path = "/tmp/wym_obs_plain.bin";
  ASSERT_TRUE(plain.SaveToFile(plain_path).ok());

  // Same run with tracing on.
  const std::string trace_path = "/tmp/wym_obs_identity_trace.json";
  obs::StartTracing(trace_path);
  core::WymModel traced;
  traced.Fit(split.train, split.validation);
  const std::vector<double> traced_probs =
      traced.PredictProbaBatch(split.test, static_cast<util::ThreadPool*>(nullptr));
  const std::string traced_model_path = "/tmp/wym_obs_traced.bin";
  ASSERT_TRUE(traced.SaveToFile(traced_model_path).ok());
  std::string error;
  ASSERT_TRUE(obs::StopTracingAndWrite(&error)) << error;

  // Bit-identical predictions and model bytes.
  ASSERT_EQ(plain_probs.size(), traced_probs.size());
  for (size_t i = 0; i < plain_probs.size(); ++i) {
    EXPECT_EQ(plain_probs[i], traced_probs[i]) << "record " << i;
  }
  EXPECT_EQ(ReadFileBytes(plain_path), ReadFileBytes(traced_model_path));

  // And the trace itself is a valid, non-trivial artifact: the Fit
  // stages and batch-predict spans must be present.
  const std::string trace = ReadFileBytes(trace_path);
  ASSERT_TRUE(obs::ValidateTraceJson(trace, &error)) << error;
  EXPECT_NE(trace.find("\"fit\""), std::string::npos);
  EXPECT_NE(trace.find("fit.unit_generation"), std::string::npos);
  EXPECT_NE(trace.find("predict.batch"), std::string::npos);

  std::remove(plain_path.c_str());
  std::remove(traced_model_path.c_str());
  std::remove(trace_path.c_str());
}

// Pipeline counters observed through a real run: Fit + predict
// populate the stage counters the DESIGN.md inventory promises.
TEST(PipelineCountersTest, FitAndPredictPopulateCounters) {
  obs::Registry& registry = obs::Registry::Global();
  const std::uint64_t fit_before =
      registry.GetCounter("fit.records").Value();
  const std::uint64_t predict_before =
      registry.GetCounter("predict.records").Value();

  const data::Dataset dataset = data::GenerateById("S-FZ", 7, 0.15);
  const data::Split split = data::DefaultSplit(dataset, 7);
  core::WymModel model;
  model.Fit(split.train, split.validation);
  (void)model.PredictProbaBatch(split.test, static_cast<util::ThreadPool*>(nullptr));

  EXPECT_EQ(registry.GetCounter("fit.records").Value() - fit_before,
            split.train.size());
  EXPECT_EQ(registry.GetCounter("predict.records").Value() - predict_before,
            split.test.size());
  // The batch path also records per-record latencies.
  EXPECT_GE(registry.GetHistogram("predict.record_ns").Snapshot().count,
            split.test.size());
}

// ---------------------------------------------------------------------------
// Telemetry: percentile edge cases, histogram deltas, request journal,
// flight recorder, windowed stats.

TEST(HistogramTest, PercentileEdgeCases) {
  // Empty snapshots answer 0 for any p, including NaN.
  const obs::HistogramSnapshot empty;
  EXPECT_EQ(empty.Percentile(0.5), 0.0);
  EXPECT_EQ(empty.Percentile(std::numeric_limits<double>::quiet_NaN()), 0.0);

  // All mass in one bucket: value 100 lives in [64, 127]. p sweeps the
  // bucket linearly, and out-of-range p clamps to the edges instead of
  // extrapolating.
  obs::HistogramSnapshot single;
  single.buckets.assign(40, 0);
  single.buckets[6] = 100;  // [64, 127]
  single.count = 100;
  EXPECT_DOUBLE_EQ(single.Percentile(0.0), 64.0);
  EXPECT_DOUBLE_EQ(single.Percentile(-1.0), 64.0);
  EXPECT_DOUBLE_EQ(
      single.Percentile(std::numeric_limits<double>::quiet_NaN()), 64.0);
  EXPECT_DOUBLE_EQ(single.Percentile(0.5), 64.0 + 0.5 * (127.0 - 64.0));
  EXPECT_DOUBLE_EQ(single.Percentile(1.0), 127.0);
  EXPECT_DOUBLE_EQ(single.Percentile(2.0), 127.0);

  // A count larger than the bucket mass (possible only in hand-built
  // snapshots, but the rounding fallthrough it exercises is real) must
  // clamp to the last *non-empty* bucket, not the array's last bucket.
  obs::HistogramSnapshot overrun;
  overrun.buckets.assign(40, 0);
  overrun.buckets[3] = 5;  // [8, 15]
  overrun.count = 10;
  EXPECT_DOUBLE_EQ(overrun.Percentile(1.0), 15.0);
}

TEST(HistogramTest, DeltaSinceSubtractsBucketwise) {
  obs::Histogram& hist =
      obs::Registry::Global().GetHistogram("test.delta_since");
  hist.Reset();
  for (int i = 0; i < 10; ++i) hist.Record(100);
  const obs::HistogramSnapshot base = hist.Snapshot();
  for (int i = 0; i < 90; ++i) hist.Record(100);
  for (int i = 0; i < 5; ++i) hist.Record(100000);

  const obs::HistogramSnapshot delta = hist.Snapshot().DeltaSince(base);
  EXPECT_EQ(delta.count, 95u);
  EXPECT_EQ(delta.sum, 90u * 100u + 5u * 100000u);
  // The delta's percentiles see only the post-base samples.
  EXPECT_GE(delta.Percentile(0.99), 65536.0);

  // A base "ahead" of the snapshot (counter reset between samples)
  // saturates to zero instead of wrapping.
  const obs::HistogramSnapshot inverted = base.DeltaSince(hist.Snapshot());
  EXPECT_EQ(inverted.count, 0u);
  EXPECT_EQ(inverted.sum, 0u);
}

TEST(EventLogTest, SetRecordFieldSanitizesAndTruncates) {
  char field[8];
  obs::SetRecordField(field, sizeof(field), "a\"b\\c\nd");
  EXPECT_STREQ(field, "a_b_c_d");
  obs::SetRecordField(field, sizeof(field), "0123456789");
  EXPECT_STREQ(field, "0123456");  // cap-1 chars + NUL.
  obs::SetRecordField(field, sizeof(field), "");
  EXPECT_STREQ(field, "");
}

obs::RequestRecord MakeRecord(std::uint64_t sequence) {
  obs::RequestRecord record;
  record.sequence = sequence;
  obs::SetRecordField(record.client_id, sizeof(record.client_id), "cli");
  obs::SetRecordField(record.op, sizeof(record.op), "predict");
  obs::SetRecordField(record.model, sizeof(record.model), "default#1");
  record.admit_ns = 1000;
  record.queue_ns = 10;
  record.run_ns = 20;
  record.total_ns = 30;
  record.pairs = 2;
  record.batches = 1;
  record.cached = 1;
  return record;
}

TEST(EventLogTest, RenderRequestRecordHasFixedKeyOrder) {
  char buf[obs::kMaxJournalLine];
  const std::size_t n =
      obs::RenderRequestRecord(MakeRecord(42), buf, sizeof(buf));
  const std::string line(buf, n);
  EXPECT_EQ(line,
            "{\"schema\":\"wym-journal/v1\",\"seq\":42,\"id\":\"q00000042\","
            "\"client_id\":\"cli\",\"op\":\"predict\",\"model\":\"default#1\""
            ",\"outcome\":\"ok\",\"admit_ns\":1000,\"queue_ns\":10,"
            "\"run_ns\":20,\"total_ns\":30,\"pairs\":2,\"batches\":1,"
            "\"cached\":1}");

  char id[obs::RequestRecord::kIdBytes];
  EXPECT_STREQ(obs::RenderRequestId(7, id, sizeof(id)), "q00000007");

  // The rendered line passes its own validator.
  std::string error;
  EXPECT_TRUE(obs::ValidateJournalJson(line + "\n", &error)) << error;
}

TEST(EventLogTest, ValidateJournalJsonRejectsBadJournals) {
  std::string error;
  EXPECT_FALSE(obs::ValidateJournalJson("", &error));  // No records.
  EXPECT_FALSE(obs::ValidateJournalJson("not json\n", &error));
  EXPECT_FALSE(obs::ValidateJournalJson("{\"schema\":\"other\"}\n", &error));

  char buf[obs::kMaxJournalLine];
  std::size_t n = obs::RenderRequestRecord(MakeRecord(1), buf, sizeof(buf));
  const std::string line(buf, n);
  // Duplicate seq across lines is the corruption the validator exists
  // to catch; distinct seqs in any order are fine.
  EXPECT_FALSE(obs::ValidateJournalJson(line + "\n" + line + "\n", &error));
  n = obs::RenderRequestRecord(MakeRecord(2), buf, sizeof(buf));
  const std::string other(buf, n);
  EXPECT_TRUE(obs::ValidateJournalJson(other + "\n" + line + "\n", &error))
      << error;
}

TEST(EventLogTest, AppendsRotatesAndCounts) {
  const std::string path = "/tmp/wym_event_log_test.jsonl";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());

  // Each rendered line is ~200 bytes; a 600-byte bound forces a
  // rotation every few appends.
  obs::EventLog::Options options;
  options.path = path;
  options.max_bytes = 600;
  obs::EventLog journal(options);
  std::string error;
  ASSERT_TRUE(journal.Open(&error)) << error;
  for (std::uint64_t seq = 1; seq <= 8; ++seq) {
    journal.Append(MakeRecord(seq));
  }
  EXPECT_EQ(journal.lines_written(), 8u);
  EXPECT_GE(journal.rotations(), 1u);
  journal.Close();

  // Both the active file and the rotation slot hold valid journals, and
  // the active file respects the size bound.
  for (const std::string& file : {path, path + ".1"}) {
    std::ifstream in(file, std::ios::binary);
    ASSERT_TRUE(in.good()) << file;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    EXPECT_TRUE(obs::ValidateJournalJson(buffer.str(), &error))
        << file << ": " << error;
    EXPECT_LE(buffer.str().size(), 600u) << file;
  }
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(FlightRecorderTest, RingKeepsLastNInOrder) {
  obs::FlightRecorder recorder(4);
  EXPECT_EQ(recorder.capacity(), 4u);
  EXPECT_TRUE(recorder.SnapshotOrdered().empty());

  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    recorder.Record(MakeRecord(seq));
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  const std::vector<obs::RequestRecord> snapshot =
      recorder.SnapshotOrdered();
  ASSERT_EQ(snapshot.size(), 4u);  // Only the last `capacity` survive.
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].sequence, 7u + i);  // Oldest first: 7, 8, 9, 10.
  }
}

TEST(FlightRecorderTest, DumpJsonValidatesAndSanitizesReason) {
  obs::FlightRecorder recorder(8);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    recorder.Record(MakeRecord(seq));
  }
  const std::string dump = recorder.DumpJson("watchdog");
  std::string error;
  EXPECT_TRUE(obs::ValidateFlightRecorderJson(dump, &error)) << error;
  EXPECT_NE(dump.find("\"reason\":\"watchdog\""), std::string::npos);
  EXPECT_NE(dump.find("\"recorded\":3"), std::string::npos);

  // A hostile reason cannot break the JSON: quotes become '_'.
  const std::string hostile = recorder.DumpJson("a\"b");
  EXPECT_TRUE(obs::ValidateFlightRecorderJson(hostile, &error)) << error;

  // An empty recorder still dumps a valid artifact.
  obs::FlightRecorder idle(2);
  EXPECT_TRUE(obs::ValidateFlightRecorderJson(idle.DumpJson("drain"), &error))
      << error;

  EXPECT_FALSE(obs::ValidateFlightRecorderJson("{}", &error));
  EXPECT_FALSE(obs::ValidateFlightRecorderJson("nope", &error));
}

/// Scratch-metric options so window tests never race the serving
/// counters other tests touch.
obs::WindowTracker::Options ScratchWindowOptions(const std::string& prefix) {
  obs::WindowTracker::Options options;
  options.requests_metric = prefix + ".requests";
  options.shed_metric = prefix + ".shed";
  options.cache_hits_metric = prefix + ".hits";
  options.cache_misses_metric = prefix + ".misses";
  options.latency_metric = prefix + ".latency";
  options.window_ns = {10ull * 1000 * 1000 * 1000};
  return options;
}

TEST(WindowTrackerTest, DeltaReportsRatesOverTheWindow) {
  const std::string prefix = "test.window_rates";
  obs::Registry& registry = obs::Registry::Global();
  obs::Counter& requests = registry.GetCounter(prefix + ".requests");
  obs::Counter& shed = registry.GetCounter(prefix + ".shed");
  obs::Counter& hits = registry.GetCounter(prefix + ".hits");
  obs::Counter& misses = registry.GetCounter(prefix + ".misses");
  obs::Histogram& latency = registry.GetHistogram(prefix + ".latency");
  requests.Reset();
  shed.Reset();
  hits.Reset();
  misses.Reset();
  latency.Reset();

  obs::WindowTracker tracker(ScratchWindowOptions(prefix));
  EXPECT_EQ(tracker.Delta(10ull * 1000 * 1000 * 1000).requests, 0u);

  tracker.Tick(0);
  requests.Add(100);
  shed.Add(10);
  hits.Add(30);
  misses.Add(70);
  for (int i = 0; i < 100; ++i) latency.Record(1000);
  tracker.Tick(10ull * 1000 * 1000 * 1000);  // +10s.

  const obs::WindowStats stats =
      tracker.Delta(10ull * 1000 * 1000 * 1000);
  EXPECT_EQ(stats.window_ns, 10ull * 1000 * 1000 * 1000);
  EXPECT_EQ(stats.requests, 100u);
  EXPECT_DOUBLE_EQ(stats.qps, 10.0);
  EXPECT_EQ(stats.shed, 10u);
  EXPECT_DOUBLE_EQ(stats.shed_rate, 0.1);
  EXPECT_DOUBLE_EQ(stats.cache_hit_rate, 0.3);
  // 1000 lives in [512, 1023]: every percentile is inside that bucket.
  EXPECT_GE(stats.p50_ns, 512.0);
  EXPECT_LE(stats.p99_ns, 1023.0);
  EXPECT_EQ(tracker.samples(), 2u);
}

TEST(WindowTrackerTest, TelemetryJsonValidatesAndIsClockFree) {
  const std::string prefix = "test.window_json";
  obs::Registry& registry = obs::Registry::Global();
  registry.GetCounter(prefix + ".requests").Reset();
  registry.GetHistogram(prefix + ".latency").Reset();

  obs::WindowTracker tracker(ScratchWindowOptions(prefix));
  tracker.Tick(1000);
  registry.GetCounter(prefix + ".requests").Add(5);
  tracker.Tick(2000);

  const std::string telemetry = tracker.TelemetryJson();
  std::string error;
  EXPECT_TRUE(obs::ValidateTelemetryJson(telemetry, &error))
      << error << "\n" << telemetry;
  // now_ns is the injected stamp of the newest sample — no wall clock.
  EXPECT_NE(telemetry.find("\"now_ns\":2000"), std::string::npos);

  // Same ticks, same counter trajectory => byte-identical artifact.
  registry.GetCounter(prefix + ".requests").Reset();
  obs::WindowTracker replay(ScratchWindowOptions(prefix));
  replay.Tick(1000);
  registry.GetCounter(prefix + ".requests").Add(5);
  replay.Tick(2000);
  EXPECT_EQ(replay.TelemetryJson(), telemetry);

  EXPECT_FALSE(obs::ValidateTelemetryJson("{}", &error));
  EXPECT_FALSE(obs::ValidateTelemetryJson(
      "{\"schema\":\"wym-telemetry/v1\",\"now_ns\":1,\"samples\":2,"
      "\"windows\":{}}",
      &error));  // Empty windows object.
}

}  // namespace
