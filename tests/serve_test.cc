// Robustness suite for the serving stack (src/serve): protocol
// round-trips, the bounded-admission / deadline / watchdog / drain
// contract of MatcherService, prediction-cache keying across model
// generations, hot load/retire through the registry (corrupt files
// rejected while the old model keeps serving), and the socket seam
// under scripted faults (short reads/writes, EINTR, mid-message
// disconnects — typed error or clean close, never a crash or hang).
//
// The headline acceptance property lives in
// ServiceTest.OverloadShedsExactlyTheExcess: with queue bound N and 4N
// concurrent requests, exactly 3N are shed with ResourceExhausted and
// every admitted request is answered with probabilities identical to
// the offline PredictProbaBatch — deterministically, at any
// WYM_THREADS, clean under TSan.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/split.h"
#include "explain/report.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "serve/model_registry.h"
#include "serve/prediction_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/socket_io.h"
#include "util/io.h"
#include "util/thread_pool.h"
#include "util/status.h"

namespace wym {
namespace {

using serve::LineChannel;
using serve::MatcherService;
using serve::ModelRegistry;
using serve::Request;
using serve::Response;
using serve::ServiceOptions;

// ---------------------------------------------------------------------
// Protocol

TEST(ProtocolTest, RequestRoundTrips) {
  Request request;
  request.op = Request::Op::kPredict;
  request.id = "r-1";
  request.model = "catalog";
  request.explain = true;
  request.deadline_ms = 250;
  data::EmRecord pair;
  pair.left.values = {"iphone \"4s\"", "black"};
  pair.right.values = {"iphone 4s", ""};
  request.pairs.push_back(pair);

  auto parsed = serve::ParseRequest(serve::RenderRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Request& back = parsed.value();
  EXPECT_EQ(back.op, Request::Op::kPredict);
  EXPECT_EQ(back.id, "r-1");
  EXPECT_EQ(back.model, "catalog");
  EXPECT_TRUE(back.explain);
  EXPECT_EQ(back.deadline_ms, 250u);
  ASSERT_EQ(back.pairs.size(), 1u);
  EXPECT_EQ(back.pairs[0].left.values, pair.left.values);
  EXPECT_EQ(back.pairs[0].right.values, pair.right.values);
}

TEST(ProtocolTest, MalformedRequestsAreTypedErrors) {
  for (const char* line : {
           "not json at all",
           "[1,2,3]",
           "{\"op\":\"fly_to_the_moon\"}",
           "{\"op\":\"predict\"}",                    // No pairs.
           "{\"op\":\"load_model\",\"name\":\"m\"}",  // No path.
           "{\"op\":\"retire_model\"}",               // No name.
           "{\"op\":\"predict\",\"pairs\":[{\"left\":[1]}]}",
       }) {
    auto parsed = serve::ParseRequest(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument)
        << line;
  }
}

TEST(ProtocolTest, ErrorResponsesCarryTheStatusCodeAcrossTheWire) {
  const Status statuses[] = {
      Status::ResourceExhausted("queue full"),
      Status::DeadlineExceeded("too slow"),
      Status::Corruption("bad frame"),
      Status::NotFound("no model"),
  };
  for (const Status& status : statuses) {
    Response response;
    response.id = "x";
    response.op = "predict";
    response.status = status;
    auto parsed = serve::ParseResponse(serve::RenderResponse(response));
    ASSERT_TRUE(parsed.ok()) << status.ToString();
    EXPECT_EQ(parsed.value().status.code(), status.code());
    EXPECT_EQ(parsed.value().status.message(), status.message());
    EXPECT_EQ(parsed.value().id, "x");
  }
}

TEST(ProtocolTest, ResponseResultsAndPayloadRoundTrip) {
  Response response;
  response.id = "q";
  response.op = "predict";
  response.model = "default";
  serve::PairResult result;
  result.prediction = 1;
  result.probability = 0.123456789123456789;
  result.cached = true;
  result.explanation_json = "{\"prediction\":1,\"units\":[]}";
  response.results.push_back(result);
  response.payload_json = "{\"models\":[\"a\",\"b\"]}";

  auto parsed = serve::ParseResponse(serve::RenderResponse(response));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Response& back = parsed.value();
  ASSERT_EQ(back.results.size(), 1u);
  EXPECT_EQ(back.results[0].prediction, 1);
  // AppendJsonNumber guarantees an exact round-trip.
  EXPECT_EQ(back.results[0].probability, result.probability);
  EXPECT_TRUE(back.results[0].cached);
  EXPECT_EQ(back.results[0].explanation_json, result.explanation_json);
  EXPECT_EQ(back.payload_json, response.payload_json);
}

TEST(ProtocolTest, ServedExplanationBytesEqualOffline) {
  // ExplanationToJson spells its numbers with six fixed digits
  // ("0.500000"); a client must receive exactly those bytes, not a
  // re-rendering of the parsed numbers ("0.5").
  core::Explanation explanation;
  explanation.prediction = 1;
  explanation.probability = 0.5;
  core::ExplainedUnit unit;
  unit.unit.paired = true;
  unit.unit.phase = core::UnitPhase::kIntraAttribute;
  unit.unit.left = {0, 0, "iphone"};
  unit.unit.right = {0, 0, "iphone"};
  unit.relevance = 1.0;
  unit.impact = 0.25;
  explanation.units.push_back(unit);
  const std::string offline = explain::ExplanationToJson(explanation);

  Response response;
  response.id = "q";
  response.op = "predict";
  serve::PairResult result;
  result.prediction = 1;
  result.probability = 0.5;
  result.explanation_json = offline;
  response.results.push_back(result);
  response.payload_json = "{\"mean_ns\":1.0e3, \"p\":[0.50,-0]}";

  auto parsed = serve::ParseResponse(serve::RenderResponse(response));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().results.size(), 1u);
  EXPECT_EQ(parsed.value().results[0].explanation_json, offline);
  EXPECT_EQ(parsed.value().payload_json, response.payload_json);
}

// ---------------------------------------------------------------------
// Prediction cache keys

TEST(PredictionCacheTest, FingerprintIsPositionSensitive) {
  data::Entity ab;
  ab.values = {"a", "b"};
  data::Entity ba;
  ba.values = {"b", "a"};
  data::Entity joined;
  joined.values = {"ab", ""};
  EXPECT_NE(serve::FingerprintEntity(ab), serve::FingerprintEntity(ba));
  EXPECT_NE(serve::FingerprintEntity(ab), serve::FingerprintEntity(joined));
  EXPECT_EQ(serve::FingerprintEntity(ab), serve::FingerprintEntity(ab));
}

TEST(PredictionCacheTest, KeySeparatesModelsAndGenerations) {
  data::EmRecord pair;
  pair.left.values = {"a"};
  pair.right.values = {"b"};
  const serve::PredictionKey gen1 = serve::MakePredictionKey(pair, "m#1");
  const serve::PredictionKey gen2 = serve::MakePredictionKey(pair, "m#2");
  EXPECT_FALSE(gen1 == gen2);
  EXPECT_TRUE(gen1 == serve::MakePredictionKey(pair, "m#1"));
}

// ---------------------------------------------------------------------
// Shared fixture: one trained model on disk

struct Suite {
  data::Dataset dataset;
  data::Split split;
  std::string model_path;
  std::string corrupt_path;
  /// Offline reference: the model as the service will see it (loaded
  /// back from the file), for exact-equality comparisons.
  std::unique_ptr<core::WymModel> loaded;
};

class ServeFixtureTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto s = std::make_unique<Suite>();
    s->dataset = data::GenerateById("S-FZ", 42, 0.3);
    s->split = data::DefaultSplit(s->dataset, 42);
    core::WymModel model;
    model.Fit(s->split.train, s->split.validation);

    const std::string prefix = testing::TempDir() + "/wym_serve_test." +
                               std::to_string(::getpid());
    s->model_path = prefix + ".model.wym";
    if (!model.SaveToFile(s->model_path).ok()) return;

    // A damaged copy: one flipped byte in the middle of the file.
    std::string bytes;
    if (!io::ReadFileToString(s->model_path, &bytes).ok()) return;
    if (bytes.size() < 200) return;
    bytes[bytes.size() / 2] ^= 0x40;
    s->corrupt_path = prefix + ".corrupt.wym";
    if (!io::WriteFileAtomic(s->corrupt_path, bytes).ok()) return;

    auto loaded = core::WymModel::LoadFromFile(s->model_path);
    if (!loaded.ok()) return;
    s->loaded = std::make_unique<core::WymModel>(std::move(loaded).value());
    suite_ = std::move(s);
  }

  static void TearDownTestSuite() {
    if (suite_ != nullptr) {
      std::remove(suite_->model_path.c_str());
      std::remove(suite_->corrupt_path.c_str());
    }
    suite_.reset();
  }

  void SetUp() override {
    ASSERT_NE(suite_, nullptr) << "shared fixture failed to build";
  }

  static const data::EmRecord& TestPair(size_t i) {
    return suite_->split.test.records[i % suite_->split.test.size()];
  }

  static Request PredictRequest(size_t pair_index, const std::string& id) {
    Request request;
    request.op = Request::Op::kPredict;
    request.id = id;
    request.pairs.push_back(TestPair(pair_index));
    return request;
  }

  /// Offline reference probability, computed with the same call shape
  /// the service uses (a batch of exactly these records).
  static std::vector<double> Offline(
      const std::vector<data::EmRecord>& records) {
    core::PredictionReport report;
    return suite_->loaded->PredictProbaBatch(records, &report, nullptr);
  }

  static std::unique_ptr<Suite> suite_;
};

std::unique_ptr<Suite> ServeFixtureTest::suite_;

// ---------------------------------------------------------------------
// Model registry

class ModelRegistryTest : public ServeFixtureTest {};

TEST_F(ModelRegistryTest, LoadGetRetireAndGenerations) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Get("default").model, nullptr);
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  ASSERT_TRUE(registry.LoadModel("beta", suite_->model_path).ok());
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"beta", "default"}));

  const serve::RegisteredModel first = registry.Get("default");
  ASSERT_NE(first.model, nullptr);
  // Empty name resolves to "default".
  EXPECT_EQ(registry.Get("").model, first.model);

  // Hot reload bumps the generation (cache poisoning across reloads).
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  const serve::RegisteredModel second = registry.Get("default");
  EXPECT_GT(second.generation, first.generation);

  EXPECT_TRUE(registry.Retire("beta").ok());
  EXPECT_EQ(registry.Retire("beta").code(), Status::Code::kNotFound);
  EXPECT_EQ(registry.size(), 1u);
}

TEST_F(ModelRegistryTest, CorruptModelRejectedOldModelKeepsServing) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("m", suite_->model_path).ok());
  const serve::RegisteredModel before = registry.Get("m");
  ASSERT_NE(before.model, nullptr);

  const Status status = registry.LoadModel("m", suite_->corrupt_path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kCorruption)
      << status.ToString();

  // All-or-nothing: the registry still serves the previous model,
  // untouched (same pointer, same generation).
  const serve::RegisteredModel after = registry.Get("m");
  EXPECT_EQ(after.model, before.model);
  EXPECT_EQ(after.generation, before.generation);
}

TEST_F(ModelRegistryTest, ConfigFileLoadsAllOrFailsFast) {
  ModelRegistry registry;
  const std::string config_path = testing::TempDir() + "/wym_serve_test." +
                                  std::to_string(::getpid()) + ".conf";
  ASSERT_TRUE(io::WriteFileAtomic(
                  config_path,
                  "# serving catalog\n"
                  "default=" + suite_->model_path + "\n"
                  "\n"
                  "beta=" + suite_->model_path + "\n")
                  .ok());
  EXPECT_TRUE(registry.LoadConfigFile(config_path).ok());
  EXPECT_EQ(registry.size(), 2u);

  ASSERT_TRUE(io::WriteFileAtomic(config_path, "just-a-name-no-path\n").ok());
  EXPECT_EQ(registry.LoadConfigFile(config_path).code(),
            Status::Code::kInvalidArgument);

  ASSERT_TRUE(
      io::WriteFileAtomic(config_path,
                          "bad=" + suite_->corrupt_path + "\n").ok());
  EXPECT_EQ(registry.LoadConfigFile(config_path).code(),
            Status::Code::kCorruption);
  std::remove(config_path.c_str());
}

// ---------------------------------------------------------------------
// MatcherService

class ServiceTest : public ServeFixtureTest {
 protected:
  /// A responder that appends into a mutex-guarded log.
  struct ResponseLog {
    std::mutex mu;
    std::vector<Response> responses;

    MatcherService::Responder Sink() {
      return [this](const Response& response) {
        std::lock_guard<std::mutex> lock(mu);
        responses.push_back(response);
      };
    }

    size_t size() {
      std::lock_guard<std::mutex> lock(mu);
      return responses.size();
    }
  };
};

TEST_F(ServiceTest, OverloadShedsExactlyTheExcess) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());

  constexpr size_t kBound = 4;
  constexpr size_t kTotal = 4 * kBound;  // 4N concurrent requests.
  ServiceOptions options;
  options.queue_bound = kBound;
  options.auto_dispatch = false;  // Admission race only; execution later.
  MatcherService service(&registry, options);

  ResponseLog log;
  std::atomic<size_t> admitted{0};
  std::atomic<size_t> shed{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = 0; i < kTotal / 4; ++i) {
        const size_t request_index = t * (kTotal / 4) + i;
        const Status status = service.Admit(
            PredictRequest(request_index, "r" + std::to_string(request_index)),
            log.Sink());
        if (status.ok()) {
          admitted.fetch_add(1);
        } else {
          ASSERT_EQ(status.code(), Status::Code::kResourceExhausted);
          shed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  // Exactly the excess is shed, regardless of interleaving.
  EXPECT_EQ(admitted.load(), kBound);
  EXPECT_EQ(shed.load(), kTotal - kBound);
  // Every shed request was already answered with the typed error.
  EXPECT_EQ(log.size(), kTotal - kBound);
  EXPECT_EQ(service.queue_depth(), kBound);

  // Execute the backlog; every admitted request gets its answer.
  EXPECT_EQ(service.ProcessQueued(), kBound);
  EXPECT_EQ(log.size(), kTotal);
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(service.in_flight(), 0u);

  // Admitted answers equal the offline batch, value for value.
  size_t ok_answers = 0;
  for (const Response& response : log.responses) {
    if (!response.status.ok()) {
      EXPECT_EQ(response.status.code(), Status::Code::kResourceExhausted);
      continue;
    }
    ++ok_answers;
    ASSERT_EQ(response.results.size(), 1u);
    const size_t request_index =
        static_cast<size_t>(std::stoul(response.id.substr(1)));
    const std::vector<double> offline = Offline({TestPair(request_index)});
    EXPECT_EQ(response.results[0].probability, offline[0]) << response.id;
    EXPECT_EQ(response.results[0].prediction, offline[0] >= 0.5 ? 1 : 0);
  }
  EXPECT_EQ(ok_answers, kBound);
}

TEST_F(ServiceTest, BatchAnswersMatchOfflineExactly) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  ServiceOptions options;
  options.auto_dispatch = false;
  options.cache_entries = 0;  // Pure compute path.
  MatcherService service(&registry, options);

  Request request;
  request.op = Request::Op::kPredict;
  request.id = "batch";
  std::vector<data::EmRecord> records;
  for (size_t i = 0; i < suite_->split.test.size(); ++i) {
    request.pairs.push_back(suite_->split.test.records[i]);
    records.push_back(suite_->split.test.records[i]);
  }

  ResponseLog log;
  ASSERT_TRUE(service.Admit(request, log.Sink()).ok());
  EXPECT_EQ(service.ProcessQueued(), 1u);
  ASSERT_EQ(log.size(), 1u);
  const Response& response = log.responses[0];
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  const std::vector<double> offline = Offline(records);
  ASSERT_EQ(response.results.size(), offline.size());
  for (size_t i = 0; i < offline.size(); ++i) {
    EXPECT_EQ(response.results[i].probability, offline[i]) << i;
  }
}

TEST_F(ServiceTest, DeadlineExpiredInQueueIsAnsweredNotDropped) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  uint64_t fake_now = 1;
  ServiceOptions options;
  options.auto_dispatch = false;
  options.now_ns = [&fake_now] { return fake_now; };
  MatcherService service(&registry, options);

  Request request = PredictRequest(0, "late");
  request.deadline_ms = 10;
  ResponseLog log;
  ASSERT_TRUE(service.Admit(request, log.Sink()).ok());

  fake_now += 11 * 1000000ull;  // The request ages out in the queue.
  EXPECT_EQ(service.ProcessQueued(), 1u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.responses[0].status.code(),
            Status::Code::kDeadlineExceeded);
  EXPECT_EQ(log.responses[0].id, "late");
}

TEST_F(ServiceTest, MidBatchDeadlineReportsProgress) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  // The fake clock advances 4ms per reading, so a 10ms budget survives
  // the dequeue check and the first 16-pair slice boundary, then
  // expires at the second.
  uint64_t fake_now = 0;
  ServiceOptions options;
  options.auto_dispatch = false;
  options.cache_entries = 0;
  options.now_ns = [&fake_now] {
    fake_now += 4 * 1000000ull;
    return fake_now;
  };
  MatcherService service(&registry, options);

  Request request;
  request.op = Request::Op::kPredict;
  request.id = "sliced";
  request.deadline_ms = 10;
  for (size_t i = 0; i < 40; ++i) request.pairs.push_back(TestPair(i));

  ResponseLog log;
  ASSERT_TRUE(service.Admit(request, log.Sink()).ok());
  EXPECT_EQ(service.ProcessQueued(), 1u);
  ASSERT_EQ(log.size(), 1u);
  const Response& response = log.responses[0];
  EXPECT_EQ(response.status.code(), Status::Code::kDeadlineExceeded);
  // The error names how far the batch got.
  EXPECT_NE(response.status.message().find("after 16 of 40 pairs"),
            std::string::npos)
      << response.status.message();
}

TEST_F(ServiceTest, CacheHitsAndGenerationPoisoning) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  ServiceOptions options;
  options.auto_dispatch = false;
  MatcherService service(&registry, options);

  ResponseLog log;
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(
        service.Admit(PredictRequest(0, "c" + std::to_string(round)),
                      log.Sink())
            .ok());
    EXPECT_EQ(service.ProcessQueued(), 1u);
  }
  ASSERT_EQ(log.size(), 2u);
  ASSERT_TRUE(log.responses[0].status.ok());
  ASSERT_TRUE(log.responses[1].status.ok());
  EXPECT_FALSE(log.responses[0].results[0].cached);
  EXPECT_TRUE(log.responses[1].results[0].cached);
  EXPECT_EQ(log.responses[0].results[0].probability,
            log.responses[1].results[0].probability);

  // Hot-reloading the model bumps its generation: the old cache entry
  // can never answer for the new model.
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  ASSERT_TRUE(service.Admit(PredictRequest(0, "c2"), log.Sink()).ok());
  EXPECT_EQ(service.ProcessQueued(), 1u);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_FALSE(log.responses[2].results[0].cached);
}

TEST_F(ServiceTest, ExplainRequestsCarryExplanationJson) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  ServiceOptions options;
  options.auto_dispatch = false;
  MatcherService service(&registry, options);

  Request request = PredictRequest(0, "ex");
  request.explain = true;
  ResponseLog log;
  ASSERT_TRUE(service.Admit(request, log.Sink()).ok());
  EXPECT_EQ(service.ProcessQueued(), 1u);
  ASSERT_EQ(log.size(), 1u);
  ASSERT_TRUE(log.responses[0].status.ok());
  ASSERT_EQ(log.responses[0].results.size(), 1u);
  EXPECT_NE(log.responses[0].results[0].explanation_json.find("units"),
            std::string::npos);
}

TEST_F(ServiceTest, EmptyPairAnswersNonMatchForPredictAndExplain) {
  // An all-empty pair tokenizes to nothing on both sides. Both ops run
  // the offline batch loop, so both take its degenerate-record rule and
  // answer the non-match fallback instead of a prediction from an empty
  // unit set.
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  ServiceOptions options;
  options.auto_dispatch = false;
  MatcherService service(&registry, options);

  ResponseLog log;
  for (const char* line :
       {R"({"op":"predict","id":"p","pairs":[{"left":[],"right":[]}]})",
        R"({"op":"predict","id":"x","explain":true,)"
        R"("pairs":[{"left":[],"right":[]}]})"}) {
    auto request = serve::ParseRequest(line);
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    ASSERT_TRUE(service.Admit(request.value(), log.Sink()).ok());
  }
  EXPECT_EQ(service.ProcessQueued(), 2u);
  ASSERT_EQ(log.size(), 2u);
  for (const Response& response : log.responses) {
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_EQ(response.results.size(), 1u);
    EXPECT_EQ(response.results[0].probability, 0.0) << response.id;
    EXPECT_EQ(response.results[0].prediction, 0) << response.id;
  }
  // The explain answer carries the empty explanation (no units).
  ASSERT_EQ(log.responses[1].id, "x");
  EXPECT_EQ(log.responses[1].results[0].explanation_json,
            explain::ExplanationToJson(core::Explanation{}));
}

TEST_F(ServiceTest, UnknownModelIsNotFoundAndRaggedPairsAreNormalized) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  ServiceOptions options;
  options.auto_dispatch = false;
  MatcherService service(&registry, options);

  Request request = PredictRequest(0, "missing");
  request.model = "nope";
  ResponseLog log;
  ASSERT_TRUE(service.Admit(request, log.Sink()).ok());
  EXPECT_EQ(service.ProcessQueued(), 1u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.responses[0].status.code(), Status::Code::kNotFound);

  // A ragged pair (wrong attribute count) is normalized, not a crash
  // and not an error: the robustness contract prefers a degraded
  // answer over a refused one.
  Request ragged;
  ragged.op = Request::Op::kPredict;
  ragged.id = "ragged";
  data::EmRecord pair;
  pair.left.values = {"only-one-value"};
  pair.right.values = {"a", "b", "c", "d", "e", "f", "g", "h"};
  ragged.pairs.push_back(pair);
  ASSERT_TRUE(service.Admit(ragged, log.Sink()).ok());
  EXPECT_EQ(service.ProcessQueued(), 1u);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log.responses[1].status.ok())
      << log.responses[1].status.ToString();
  ASSERT_EQ(log.responses[1].results.size(), 1u);
  EXPECT_GE(log.responses[1].results[0].probability, 0.0);
  EXPECT_LE(log.responses[1].results[0].probability, 1.0);
}

TEST_F(ServiceTest, DrainShedsNewWorkAndFinishesBacklog) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  ServiceOptions options;
  options.auto_dispatch = false;
  MatcherService service(&registry, options);

  ResponseLog log;
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        service.Admit(PredictRequest(i, "d" + std::to_string(i)), log.Sink())
            .ok());
  }
  service.BeginDrain();
  EXPECT_TRUE(service.draining());

  // New work is shed with the typed "draining" error...
  const Status late = service.Admit(PredictRequest(9, "late"), log.Sink());
  EXPECT_EQ(late.code(), Status::Code::kResourceExhausted);
  EXPECT_NE(late.message().find("draining"), std::string::npos);

  // ...but introspection still answers (stats during drain).
  Request stats;
  stats.op = Request::Op::kStats;
  stats.id = "stats";
  EXPECT_TRUE(service.Admit(stats, log.Sink()).ok());

  // Drain finishes the backlog: zero in-flight losses.
  service.Drain();
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(service.in_flight(), 0u);
  // 3 backlog answers + 1 shed + 1 stats = every request answered once.
  EXPECT_EQ(log.size(), 5u);
  size_t ok = 0;
  for (const Response& response : log.responses) {
    if (response.status.ok()) ++ok;
  }
  EXPECT_EQ(ok, 4u);  // 3 predictions + stats.
}

TEST_F(ServiceTest, ShutdownOpBeginsDrain) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  ServiceOptions options;
  options.auto_dispatch = false;
  MatcherService service(&registry, options);

  ResponseLog log;
  Request shutdown;
  shutdown.op = Request::Op::kShutdown;
  EXPECT_TRUE(service.Admit(shutdown, log.Sink()).ok());
  EXPECT_TRUE(service.draining());
  EXPECT_EQ(log.size(), 1u);
}

TEST_F(ServiceTest, DebugOpsAreGatedByDefault) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  ServiceOptions options;
  options.auto_dispatch = false;
  MatcherService service(&registry, options);

  ResponseLog log;
  Request sleep_request;
  sleep_request.op = Request::Op::kDebugSleep;
  sleep_request.sleep_ms = 1;
  const Status status = service.Admit(sleep_request, log.Sink());
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(log.size(), 1u);  // Still answered, with the typed error.
}

TEST_F(ServiceTest, DestructorWaitsForDispatchedTaskAfterItsAnswer) {
  // A dispatched task reads the service clock again after its response
  // is out. The clock stalls there, so a caller that destroys the
  // service as soon as it has the answer races the task's tail.
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  util::ThreadPool pool(2);
  std::atomic<bool> answered{false};
  std::atomic<bool> tail_done{false};
  {
    ServiceOptions options;
    options.now_ns = [&answered, &tail_done] {
      if (answered.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        tail_done.store(true);
      }
      return obs::NowNanos();
    };
    MatcherService service(&registry, options, &pool);
    std::promise<void> got;
    ASSERT_TRUE(service
                    .Admit(PredictRequest(0, "tail"),
                           [&answered, &got](const Response&) {
                             answered.store(true);
                             got.set_value();
                           })
                    .ok());
    got.get_future().wait();
  }
  EXPECT_TRUE(tail_done.load());
}

TEST_F(ServiceTest, WatchdogConvertsWedgedWorkerIntoTypedError) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  ServiceOptions options;
  options.auto_dispatch = false;
  options.enable_debug_ops = true;
  options.wedge_timeout_ms = 20;
  MatcherService service(&registry, options);

  ResponseLog log;
  Request wedge;
  wedge.op = Request::Op::kDebugSleep;
  wedge.id = "wedge";
  wedge.sleep_ms = 60000;  // Far beyond any test budget.
  ASSERT_TRUE(service.Admit(wedge, log.Sink()).ok());

  std::thread worker([&service] { service.ProcessOne(); });

  // The watchdog answers once the request has visibly started and aged
  // past the wedge timeout (the far-future timestamp makes age
  // irrelevant — only "started and unanswered" matters).
  size_t recovered = 0;
  for (int spin = 0; spin < 5000 && recovered == 0; ++spin) {
    recovered =
        service.PokeWatchdog(UINT64_C(1) << 62);
    if (recovered == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(recovered, 1u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.responses[0].status.code(),
            Status::Code::kDeadlineExceeded);
  EXPECT_EQ(log.responses[0].id, "wedge");

  // The recovered "wedge" releases its worker (the answered flag is the
  // sleep loop's escape hatch): the thread joins promptly, and the late
  // answer is discarded — exactly one response total.
  worker.join();
  EXPECT_EQ(service.in_flight(), 0u);
  EXPECT_EQ(log.size(), 1u);
}

TEST_F(ServiceTest, StatsJsonExposesQueueCacheAndModels) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  ServiceOptions options;
  options.auto_dispatch = false;
  options.queue_bound = 7;
  MatcherService service(&registry, options);

  const std::string stats = service.StatsJson();
  EXPECT_NE(stats.find("\"queue_bound\":7"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"models\":[\"default\"]"), std::string::npos);
  EXPECT_NE(stats.find("\"cache\""), std::string::npos);
  EXPECT_NE(stats.find("\"metrics\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Serving telemetry: minted request ids, journal, flight recorder,
// windowed stats

TEST_F(ServiceTest, MintedRequestIdsAreUniquePerAdmission) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  ServiceOptions options;
  options.auto_dispatch = false;
  MatcherService service(&registry, options);

  // A client retry reuses its correlation id; each admission still
  // mints a fresh request id, so the two attempts are tellable apart.
  ResponseLog log;
  Request retry;
  retry.op = Request::Op::kPing;
  retry.id = "client-7";
  ASSERT_TRUE(service.Admit(retry, log.Sink()).ok());
  ASSERT_TRUE(service.Admit(retry, log.Sink()).ok());
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.responses[0].id, "client-7");
  EXPECT_EQ(log.responses[1].id, "client-7");
  EXPECT_EQ(log.responses[0].request_id, "q00000001");
  EXPECT_EQ(log.responses[1].request_id, "q00000002");

  // The minted id crosses the wire as "req" and round-trips.
  const std::string rendered = serve::RenderResponse(log.responses[1]);
  EXPECT_NE(rendered.find("\"req\":\"q00000002\""), std::string::npos)
      << rendered;
  Result<Response> parsed = serve::ParseResponse(rendered);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().request_id, "q00000002");
}

TEST_F(ServiceTest, JournalBytesAreIdenticalAcrossThreadCounts) {
  const std::string prefix = testing::TempDir() + "/wym_journal_det." +
                             std::to_string(::getpid());
  // One sequential serving session: two queued predicts, one shed
  // (bound 2), the backlog, then a repeat pair that hits the cache.
  // With the injected counting clock every timestamp is a function of
  // the Now() call sequence alone, so the journal bytes must not
  // depend on the worker pool width.
  auto run = [&](size_t threads, const std::string& path,
                 std::string* bytes) {
    util::ThreadPool pool(threads);
    ModelRegistry registry;
    ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
    obs::EventLog::Options journal_options;
    journal_options.path = path;
    obs::EventLog journal(journal_options);
    std::string error;
    ASSERT_TRUE(journal.Open(&error)) << error;

    uint64_t fake_now = 0;
    ServiceOptions options;
    options.auto_dispatch = false;
    options.queue_bound = 2;
    options.now_ns = [&fake_now] { return fake_now += 1000; };
    options.journal = &journal;
    MatcherService service(&registry, options, &pool);

    ResponseLog log;
    ASSERT_TRUE(service.Admit(PredictRequest(0, "a"), log.Sink()).ok());
    ASSERT_TRUE(service.Admit(PredictRequest(1, "b"), log.Sink()).ok());
    EXPECT_EQ(service.Admit(PredictRequest(2, "c"), log.Sink()).code(),
              Status::Code::kResourceExhausted);
    EXPECT_EQ(service.ProcessQueued(), 2u);
    ASSERT_TRUE(service.Admit(PredictRequest(0, "a2"), log.Sink()).ok());
    EXPECT_EQ(service.ProcessQueued(), 1u);
    journal.Close();
    ASSERT_TRUE(io::ReadFileToString(path, bytes).ok());
    std::string journal_error;
    EXPECT_TRUE(obs::ValidateJournalJson(*bytes, &journal_error))
        << journal_error;
  };

  std::string one, eight;
  run(1, prefix + ".1.jsonl", &one);
  run(8, prefix + ".8.jsonl", &eight);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, eight);
  // The shed and the cache hit both made it into the journal.
  EXPECT_NE(one.find("\"outcome\":\"shed\""), std::string::npos) << one;
  EXPECT_NE(one.find("\"outcome\":\"cache_hit\""), std::string::npos) << one;
  std::remove((prefix + ".1.jsonl").c_str());
  std::remove((prefix + ".8.jsonl").c_str());
}

TEST_F(ServiceTest, JournalRotatesAtSizeBoundWhileServing) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  const std::string path = testing::TempDir() + "/wym_journal_rotate." +
                           std::to_string(::getpid()) + ".jsonl";
  obs::EventLog::Options journal_options;
  journal_options.path = path;
  journal_options.max_bytes = 512;  // A few ping lines per file.
  obs::EventLog journal(journal_options);
  std::string error;
  ASSERT_TRUE(journal.Open(&error)) << error;

  ServiceOptions options;
  options.auto_dispatch = false;
  options.journal = &journal;
  MatcherService service(&registry, options);

  ResponseLog log;
  for (int i = 0; i < 10; ++i) {
    Request ping;
    ping.op = Request::Op::kPing;
    ping.id = "p" + std::to_string(i);
    ASSERT_TRUE(service.Admit(ping, log.Sink()).ok());
  }
  EXPECT_EQ(journal.lines_written(), 10u);
  EXPECT_GE(journal.rotations(), 1u);
  journal.Close();

  // Both the active file and the rotation slot are valid journals and
  // honor the size bound.
  for (const std::string& file : {path, path + ".1"}) {
    std::string bytes;
    ASSERT_TRUE(io::ReadFileToString(file, &bytes).ok()) << file;
    EXPECT_TRUE(obs::ValidateJournalJson(bytes, &error))
        << file << ": " << error;
    EXPECT_LE(bytes.size(), 512u) << file;
  }
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST_F(ServiceTest, WatchdogRecoveryLandsWedgedRecordInFlightRecorder) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  obs::FlightRecorder recorder(16);
  ServiceOptions options;
  options.auto_dispatch = false;
  options.enable_debug_ops = true;
  options.wedge_timeout_ms = 20;
  options.recorder = &recorder;
  MatcherService service(&registry, options);

  ResponseLog log;
  Request wedge;
  wedge.op = Request::Op::kDebugSleep;
  wedge.id = "stuck-client";
  wedge.sleep_ms = 60000;
  ASSERT_TRUE(service.Admit(wedge, log.Sink()).ok());
  std::thread worker([&service] { service.ProcessOne(); });

  size_t recovered = 0;
  for (int spin = 0; spin < 5000 && recovered == 0; ++spin) {
    recovered = service.PokeWatchdog(UINT64_C(1) << 62);
    if (recovered == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(recovered, 1u);
  worker.join();

  // The postmortem artifact is valid and holds the wedged request —
  // the incident is diagnosable from the dump alone.
  const std::string dump = recorder.DumpJson("watchdog");
  std::string error;
  EXPECT_TRUE(obs::ValidateFlightRecorderJson(dump, &error)) << error;
  EXPECT_NE(dump.find("\"client_id\":\"stuck-client\""), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("\"outcome\":\"wedged\""), std::string::npos);
  EXPECT_NE(dump.find("\"reason\":\"watchdog\""), std::string::npos);
  // The released worker's late answer lost the race: nothing after the
  // wedged record.
  EXPECT_EQ(recorder.recorded(), 1u);
}

TEST_F(ServiceTest, WindowPercentilesMatchOfflineRecomputation) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  obs::WindowTracker windows;  // Default serving metric names.
  uint64_t fake_now = 0;
  ServiceOptions options;
  options.auto_dispatch = false;
  options.cache_entries = 0;
  options.now_ns = [&fake_now] { return fake_now += 1000; };
  options.windows = &windows;
  MatcherService service(&registry, options);

  const obs::HistogramSnapshot before =
      obs::Registry::Global().GetHistogram("serve.request_ns").Snapshot();
  windows.Tick(0);
  ResponseLog log;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        service.Admit(PredictRequest(i, "w" + std::to_string(i)), log.Sink())
            .ok());
    EXPECT_EQ(service.ProcessQueued(), 1u);
  }
  windows.Tick(10ull * 1000 * 1000 * 1000);

  // The window's percentiles must equal an offline recomputation from
  // raw histogram deltas over the same span.
  const obs::WindowStats stats = windows.Delta(10ull * 1000 * 1000 * 1000);
  const obs::HistogramSnapshot offline =
      obs::Registry::Global()
          .GetHistogram("serve.request_ns")
          .Snapshot()
          .DeltaSince(before);
  EXPECT_EQ(offline.count, 8u);
  EXPECT_DOUBLE_EQ(stats.p50_ns, offline.Percentile(0.50));
  EXPECT_DOUBLE_EQ(stats.p95_ns, offline.Percentile(0.95));
  EXPECT_DOUBLE_EQ(stats.p99_ns, offline.Percentile(0.99));
  // The counting clock makes every request cost exactly 2000ns (three
  // Now() reads), pinning the percentiles into bucket [1024, 2047].
  EXPECT_GE(stats.p99_ns, 1024.0);
  EXPECT_LE(stats.p99_ns, 2047.0);
}

TEST_F(ServiceTest, StatsJsonExposesTelemetrySectionsOnlyWhenConfigured) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  ServiceOptions off;
  off.auto_dispatch = false;
  MatcherService plain(&registry, off);
  const std::string without = plain.StatsJson();
  EXPECT_EQ(without.find("\"windows\""), std::string::npos);
  EXPECT_EQ(without.find("\"journal\""), std::string::npos);
  EXPECT_EQ(without.find("\"recorder\""), std::string::npos);

  const std::string path = testing::TempDir() + "/wym_stats_journal." +
                           std::to_string(::getpid()) + ".jsonl";
  obs::EventLog::Options journal_options;
  journal_options.path = path;
  obs::EventLog journal(journal_options);
  std::string error;
  ASSERT_TRUE(journal.Open(&error)) << error;
  obs::FlightRecorder recorder(4);
  obs::WindowTracker windows;
  ServiceOptions on;
  on.auto_dispatch = false;
  on.journal = &journal;
  on.recorder = &recorder;
  on.windows = &windows;
  MatcherService service(&registry, on);

  ResponseLog log;
  Request ping;
  ping.op = Request::Op::kPing;
  ping.id = "s";
  ASSERT_TRUE(service.Admit(ping, log.Sink()).ok());
  const std::string stats = service.StatsJson();
  EXPECT_NE(stats.find("\"windows\":{"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"journal\":{\"path\":"), std::string::npos);
  EXPECT_NE(stats.find("\"lines\":1"), std::string::npos);
  EXPECT_NE(stats.find("\"recorder\":{\"capacity\":4,\"recorded\":1}"),
            std::string::npos);
  journal.Close();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Socket seam under scripted faults

/// A connected AF_UNIX socketpair; both ends owned by the test.
struct SocketPairFds {
  int a = -1;
  int b = -1;
  SocketPairFds() {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
      a = fds[0];
      b = fds[1];
    }
  }
};

TEST(SocketIoTest, ShortReadsReassembleTheLine) {
  SocketPairFds fds;
  ASSERT_GE(fds.a, 0);
  LineChannel reader(fds.a);
  LineChannel writer(fds.b);
  ASSERT_TRUE(writer.WriteLine("hello fragmented world").ok());

  io::FaultInjector injector;
  injector.SockShortRead(1).SockShortRead(2).SockShortRead(3);
  io::ScopedFaultInjector guard(&injector);
  std::string line;
  bool eof = false;
  bool timed_out = false;
  ASSERT_TRUE(reader.ReadLine(&line, 1000, &eof, &timed_out).ok());
  EXPECT_FALSE(eof);
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(line, "hello fragmented world");
}

TEST(SocketIoTest, EintrIsRetriedOnBothDirections) {
  SocketPairFds fds;
  ASSERT_GE(fds.a, 0);
  LineChannel reader(fds.a);
  LineChannel writer(fds.b);

  io::FaultInjector injector;
  injector.SockEintr().SockEintr();
  io::ScopedFaultInjector guard(&injector);
  ASSERT_TRUE(writer.WriteLine("interrupted but delivered").ok());
  std::string line;
  bool eof = false;
  bool timed_out = false;
  ASSERT_TRUE(reader.ReadLine(&line, 1000, &eof, &timed_out).ok());
  EXPECT_EQ(line, "interrupted but delivered");
}

TEST(SocketIoTest, ShortWritesCompleteTheLine) {
  SocketPairFds fds;
  ASSERT_GE(fds.a, 0);
  LineChannel reader(fds.a);
  LineChannel writer(fds.b);

  {
    io::FaultInjector injector;
    injector.SockShortWrite(2).SockShortWrite(1).SockShortWrite(4);
    io::ScopedFaultInjector guard(&injector);
    ASSERT_TRUE(writer.WriteLine("drip fed payload").ok());
  }
  std::string line;
  bool eof = false;
  bool timed_out = false;
  ASSERT_TRUE(reader.ReadLine(&line, 1000, &eof, &timed_out).ok());
  EXPECT_EQ(line, "drip fed payload");
}

TEST(SocketIoTest, DisconnectBetweenMessagesIsCleanEof) {
  SocketPairFds fds;
  ASSERT_GE(fds.a, 0);
  LineChannel reader(fds.a);
  LineChannel writer(fds.b);
  ASSERT_TRUE(writer.WriteLine("x").ok());

  io::FaultInjector injector;
  injector.SockDisconnect();
  io::ScopedFaultInjector guard(&injector);
  std::string line;
  bool eof = false;
  bool timed_out = false;
  ASSERT_TRUE(reader.ReadLine(&line, 1000, &eof, &timed_out).ok());
  EXPECT_TRUE(eof);
}

TEST(SocketIoTest, DisconnectMidMessageIsATypedError) {
  SocketPairFds fds;
  ASSERT_GE(fds.a, 0);
  LineChannel reader(fds.a);
  {
    // Peer sends a torn line (no terminator), then goes away.
    LineChannel writer(fds.b);
    const char torn[] = "torn-messa";
    ASSERT_EQ(::send(fds.b, torn, sizeof(torn) - 1, 0),
              static_cast<ssize_t>(sizeof(torn) - 1));
  }  // ~LineChannel closes the peer fd.
  std::string line;
  bool eof = false;
  bool timed_out = false;
  const Status status = reader.ReadLine(&line, 1000, &eof, &timed_out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kIoError);
  EXPECT_NE(status.ToString().find("mid-message"), std::string::npos);
}

TEST(SocketIoTest, DisconnectDuringWriteIsATypedError) {
  SocketPairFds fds;
  ASSERT_GE(fds.a, 0);
  LineChannel writer(fds.a);
  ::close(fds.b);

  io::FaultInjector injector;
  injector.SockDisconnect();
  io::ScopedFaultInjector guard(&injector);
  const Status status = writer.WriteLine("into the void");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kIoError);
}

// ---------------------------------------------------------------------
// End-to-end over a socketpair: the production connection loop

class SocketServeTest : public ServeFixtureTest {
 protected:
  /// Runs a full client exchange against ServeConnection on a
  /// socketpair, with optional scripted faults installed on the
  /// *server* thread. Returns the response lines the client got.
  static std::vector<std::string> Exchange(
      MatcherService* service, const std::vector<std::string>& lines,
      io::FaultInjector* server_faults) {
    SocketPairFds fds;
    EXPECT_GE(fds.a, 0);
    serve::ServerOptions server_options;
    server_options.read_timeout_ms = 50;
    serve::SocketServer server(service, server_options);
    std::thread connection([&server, &fds, server_faults] {
      if (server_faults != nullptr) {
        io::ScopedFaultInjector guard(server_faults);
        server.ServeConnection(fds.a);
      } else {
        server.ServeConnection(fds.a);
      }
    });

    std::vector<std::string> responses;
    {
      LineChannel client(fds.b);
      for (const std::string& line : lines) {
        if (!client.WriteLine(line).ok()) break;
        std::string response;
        bool eof = false;
        bool timed_out = false;
        const Status read =
            client.ReadLine(&response, 5000, &eof, &timed_out);
        if (!read.ok() || eof || timed_out) break;
        responses.push_back(response);
      }
    }  // Client closes; the connection thread sees EOF and returns.
    connection.join();
    return responses;
  }
};

TEST_F(SocketServeTest, PredictOverTheWireMatchesOffline) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  MatcherService service(&registry, ServiceOptions{});

  Request request = PredictRequest(0, "wire");
  const std::vector<std::string> responses =
      Exchange(&service, {serve::RenderRequest(request)}, nullptr);
  ASSERT_EQ(responses.size(), 1u);
  auto parsed = serve::ParseResponse(responses[0]);
  ASSERT_TRUE(parsed.ok()) << responses[0];
  ASSERT_TRUE(parsed.value().status.ok())
      << parsed.value().status.ToString();
  ASSERT_EQ(parsed.value().results.size(), 1u);
  const std::vector<double> offline = Offline({TestPair(0)});
  EXPECT_EQ(parsed.value().results[0].probability, offline[0]);
}

TEST_F(SocketServeTest, MalformedLineGetsTypedErrorAndConnectionSurvives) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  MatcherService service(&registry, ServiceOptions{});

  const std::vector<std::string> responses = Exchange(
      &service, {"this is not json", "{\"op\":\"ping\",\"id\":\"after\"}"},
      nullptr);
  ASSERT_EQ(responses.size(), 2u);
  auto error = serve::ParseResponse(responses[0]);
  ASSERT_TRUE(error.ok()) << responses[0];
  EXPECT_EQ(error.value().status.code(), Status::Code::kInvalidArgument);
  auto ping = serve::ParseResponse(responses[1]);
  ASSERT_TRUE(ping.ok()) << responses[1];
  EXPECT_TRUE(ping.value().status.ok());
  EXPECT_EQ(ping.value().id, "after");
}

TEST_F(SocketServeTest, ServerSideFaultSweepNeverCrashesOrHangs) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  MatcherService service(&registry, ServiceOptions{});

  const std::string ping = "{\"op\":\"ping\",\"id\":\"p\"}";
  // Each scripted fault lands on the server's connection loop. The
  // contract: a typed response, or a clean close (fewer responses) —
  // never a crash, never a hang (Exchange joins the thread).
  for (int kind = 0; kind < 4; ++kind) {
    io::FaultInjector injector;
    switch (kind) {
      case 0:
        injector.SockShortRead(1).SockShortRead(2);
        break;
      case 1:
        injector.SockEintr().SockEintr();
        break;
      case 2:
        injector.SockDisconnect();
        break;
      case 3:
        injector.SockShortWrite(1).SockShortWrite(2);
        break;
    }
    const std::vector<std::string> responses =
        Exchange(&service, {ping, ping}, &injector);
    EXPECT_LE(responses.size(), 2u) << "fault kind " << kind;
    for (const std::string& line : responses) {
      auto parsed = serve::ParseResponse(line);
      ASSERT_TRUE(parsed.ok()) << "fault kind " << kind << ": " << line;
      EXPECT_TRUE(parsed.value().status.ok());
    }
    // The service itself is untouched by connection-level faults.
    EXPECT_EQ(service.queue_depth(), 0u);
    EXPECT_EQ(service.in_flight(), 0u);
  }
}

TEST_F(SocketServeTest, HotLoadCorruptRejectOldModelKeepsServingOverWire) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("default", suite_->model_path).ok());
  MatcherService service(&registry, ServiceOptions{});

  Request load_corrupt;
  load_corrupt.op = Request::Op::kLoadModel;
  load_corrupt.id = "hot";
  load_corrupt.name = "default";
  load_corrupt.path = suite_->corrupt_path;

  Request predict = PredictRequest(0, "still-serving");
  const std::vector<std::string> responses = Exchange(
      &service,
      {serve::RenderRequest(load_corrupt), serve::RenderRequest(predict)},
      nullptr);
  ASSERT_EQ(responses.size(), 2u);

  auto rejected = serve::ParseResponse(responses[0]);
  ASSERT_TRUE(rejected.ok()) << responses[0];
  EXPECT_EQ(rejected.value().status.code(), Status::Code::kCorruption);

  auto served = serve::ParseResponse(responses[1]);
  ASSERT_TRUE(served.ok()) << responses[1];
  ASSERT_TRUE(served.value().status.ok())
      << served.value().status.ToString();
  const std::vector<double> offline = Offline({TestPair(0)});
  ASSERT_EQ(served.value().results.size(), 1u);
  EXPECT_EQ(served.value().results[0].probability, offline[0]);
}

}  // namespace
}  // namespace wym
