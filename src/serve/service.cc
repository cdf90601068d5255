#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "explain/report.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wym::serve {

namespace {

constexpr uint64_t kMillisToNanos = 1000000ull;

obs::Counter& RequestsCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve.requests");
  return counter;
}

obs::Counter& AdmittedCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve.admitted");
  return counter;
}

obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& gauge =
      obs::Registry::Global().GetGauge("serve.queue_depth");
  return gauge;
}

obs::Histogram& RequestLatencyHistogram() {
  static obs::Histogram& histogram =
      obs::Registry::Global().GetHistogram("serve.request_ns");
  return histogram;
}

obs::Counter& WedgedCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve.wedged_recovered");
  return counter;
}

obs::Counter& CacheHitCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve.cache_hits");
  return counter;
}

obs::Counter& CacheMissCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve.cache_misses");
  return counter;
}

obs::Counter& ShedCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve.shed");
  return counter;
}

obs::Counter& DeadlineCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve.deadline_expired");
  return counter;
}

Response ErrorResponse(const Request& request, Status status) {
  Response response;
  response.id = request.id;
  response.op = OpName(request.op);
  response.status = std::move(status);
  return response;
}

/// The model's feature pipeline is fixed-width; a client pair with a
/// different attribute count is padded with empty values / truncated
/// rather than rejected, mirroring how ragged CSV rows are normalized
/// at training time. Deterministic: the same wire pair always yields
/// the same normalized record.
data::EmRecord NormalizePair(const data::EmRecord& pair,
                             size_t num_attributes) {
  data::EmRecord out = pair;
  out.left.values.resize(num_attributes);
  out.right.values.resize(num_attributes);
  return out;
}

}  // namespace

MatcherService::MatcherService(ModelRegistry* registry,
                               ServiceOptions options,
                               util::ThreadPool* pool)
    : registry_(registry),
      options_(std::move(options)),
      pool_(pool),
      cache_(options_.cache_entries) {}

MatcherService::~MatcherService() {
  // The caller may hold its answer while the task that sent it still
  // updates the in-flight set, histograms and journal.
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return dispatched_ == 0; });
}

uint64_t MatcherService::Now() const {
  return options_.now_ns ? options_.now_ns() : obs::NowNanos();
}

bool MatcherService::Respond(const StatePtr& state, Response response) {
  if (state->answered.exchange(true)) return false;
  // The minted admission id rides every response ("req"), so a client
  // retry (same client id, new admission) is distinguishable in the
  // journal.
  char minted[obs::RequestRecord::kIdBytes];
  response.request_id =
      obs::RenderRequestId(state->sequence, minted, sizeof(minted));
  state->responder(response);
  return true;
}

obs::RequestRecord MatcherService::BuildRecord(
    const RequestState& state, uint64_t end_ns,
    obs::RequestOutcome outcome) const {
  obs::RequestRecord record;
  record.sequence = state.sequence;
  obs::SetRecordField(record.client_id, sizeof(record.client_id),
                      state.request.id);
  obs::SetRecordField(record.op, sizeof(record.op),
                      OpName(state.request.op));
  if (state.request.op == Request::Op::kPredict) {
    const std::string name = state.request.model.empty()
                                 ? kDefaultModelName
                                 : state.request.model;
    obs::SetRecordField(
        record.model, sizeof(record.model),
        name + "#" + std::to_string(state.generation.load(
                         std::memory_order_relaxed)));
  }
  record.admit_ns = state.admit_ns;
  const uint64_t started = state.started_ns.load(std::memory_order_relaxed);
  if (started != 0) {
    record.queue_ns = started > state.admit_ns ? started - state.admit_ns : 0;
    record.run_ns = end_ns > started ? end_ns - started : 0;
  }
  record.total_ns = end_ns > state.admit_ns ? end_ns - state.admit_ns : 0;
  record.pairs = static_cast<uint32_t>(state.request.pairs.size());
  record.batches = state.batches.load(std::memory_order_relaxed);
  record.cached = state.cached.load(std::memory_order_relaxed);
  record.outcome = outcome;
  return record;
}

void MatcherService::EmitRecord(const obs::RequestRecord& record) {
  if (options_.journal != nullptr) options_.journal->Append(record);
  if (options_.recorder != nullptr) options_.recorder->Record(record);
}

obs::RequestOutcome MatcherService::ClassifyOutcome(
    const RequestState& state, const Response& response) const {
  if (!response.status.ok()) {
    return response.status.code() == Status::Code::kDeadlineExceeded
               ? obs::RequestOutcome::kDeadline
               : obs::RequestOutcome::kError;
  }
  if (state.request.op == Request::Op::kPredict &&
      !state.request.pairs.empty() &&
      state.cached.load(std::memory_order_relaxed) ==
          state.request.pairs.size()) {
    return obs::RequestOutcome::kCacheHit;
  }
  return obs::RequestOutcome::kOk;
}

Status MatcherService::Admit(Request request, Responder responder) {
  RequestsCounter().Add(1);
  // Every request — inline, queued, or shed — takes an admission
  // sequence number and stamp; together they mint the journal id.
  const uint64_t sequence =
      next_sequence_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t admit_ns = Now();
  const bool telemetry =
      options_.journal != nullptr || options_.recorder != nullptr;

  // Introspection ops answer inline on the admission thread: they are
  // cheap, must work even under overload (stats during an incident is
  // the whole point), and keep serving during drain.
  Response inline_response;
  bool answered_inline = false;
  switch (request.op) {
    case Request::Op::kPing:
      inline_response.payload_json = "{\"protocol\":\"" +
                                     std::string(kProtocolName) + "\"}";
      answered_inline = true;
      break;
    case Request::Op::kStats:
      inline_response.payload_json = StatsJson();
      answered_inline = true;
      break;
    case Request::Op::kListModels:
      inline_response.payload_json = ModelListJson();
      answered_inline = true;
      break;
    case Request::Op::kShutdown:
      BeginDrain();
      inline_response.payload_json = "{\"draining\":true}";
      answered_inline = true;
      break;
    default:
      break;
  }
  if (request.op == Request::Op::kDebugSleep && !options_.enable_debug_ops) {
    Status status = Status::InvalidArgument("debug ops are disabled");
    inline_response.status = status;
    answered_inline = true;
  }
  if (answered_inline) {
    const Status status = inline_response.status;
    inline_response.id = request.id;
    inline_response.op = OpName(request.op);
    char minted[obs::RequestRecord::kIdBytes];
    inline_response.request_id =
        obs::RenderRequestId(sequence, minted, sizeof(minted));
    responder(inline_response);
    if (telemetry) {
      RequestState scratch;
      scratch.request = std::move(request);
      scratch.sequence = sequence;
      scratch.admit_ns = admit_ns;
      EmitRecord(BuildRecord(scratch, Now(),
                             status.ok() ? obs::RequestOutcome::kOk
                                         : obs::RequestOutcome::kError));
    }
    return status;
  }

  auto state = std::make_shared<RequestState>();
  state->request = std::move(request);
  state->responder = std::move(responder);
  state->sequence = sequence;
  state->admit_ns = admit_ns;
  const uint64_t budget_ms = state->request.deadline_ms != 0
                                 ? state->request.deadline_ms
                                 : options_.default_deadline_ms;
  if (budget_ms != 0) {
    state->deadline_ns = state->admit_ns + budget_ms * kMillisToNanos;
  }

  Status admit_status;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      admit_status =
          Status::ResourceExhausted("draining: not accepting new work");
    } else if (queue_.size() >= options_.queue_bound) {
      admit_status = Status::ResourceExhausted(
          "queue full (" + std::to_string(options_.queue_bound) +
          " requests); retry with backoff");
    } else {
      queue_.push_back(state);
      QueueDepthGauge().Set(static_cast<int64_t>(queue_.size()));
    }
  }
  if (!admit_status.ok()) {
    // Shed: answered immediately with the typed error — never blocked
    // waiting for capacity, never silently dropped. Outside the lock:
    // journal emission is file I/O and must not stall admissions.
    Respond(state, ErrorResponse(state->request, admit_status));
    ShedCounter().Add(1);
    if (telemetry) {
      EmitRecord(BuildRecord(*state, Now(), obs::RequestOutcome::kShed));
    }
    return admit_status;
  }
  AdmittedCounter().Add(1);

  if (options_.auto_dispatch) {
    util::ThreadPool& pool =
        pool_ != nullptr ? *pool_ : util::ThreadPool::Global();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++dispatched_;
    }
    pool.Submit([this] {
      ProcessOne();
      std::lock_guard<std::mutex> lock(mu_);
      --dispatched_;
      idle_cv_.notify_all();
    });
  }
  return Status::Ok();
}

bool MatcherService::ProcessOne() {
  StatePtr state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    state = queue_.front();
    queue_.pop_front();
    in_flight_.push_back(state);
    QueueDepthGauge().Set(static_cast<int64_t>(queue_.size()));
  }
  state->started_ns.store(Now());

  Response response = Execute(state.get());
  const obs::RequestOutcome outcome = ClassifyOutcome(*state, response);
  const bool answered = Respond(state, std::move(response));

  {
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_.erase(
        std::remove(in_flight_.begin(), in_flight_.end(), state),
        in_flight_.end());
    if (queue_.empty() && in_flight_.empty()) idle_cv_.notify_all();
  }
  const uint64_t end_ns = Now();
  RequestLatencyHistogram().Record(end_ns - state->admit_ns);
  // Journal only when this thread won the answer race: a watchdog that
  // already recovered the request has already journaled it as wedged.
  if (answered) {
    if (outcome == obs::RequestOutcome::kDeadline) DeadlineCounter().Add(1);
    if (options_.journal != nullptr || options_.recorder != nullptr) {
      EmitRecord(BuildRecord(*state, end_ns, outcome));
    }
  }
  return true;
}

size_t MatcherService::ProcessQueued() {
  size_t processed = 0;
  while (ProcessOne()) ++processed;
  return processed;
}

void MatcherService::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
}

void MatcherService::AwaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock,
                [this] { return queue_.empty() && in_flight_.empty(); });
}

void MatcherService::Drain() {
  BeginDrain();
  // Help finish the backlog on this thread; pool workers racing us pop
  // under the same lock, so every queued request runs exactly once.
  ProcessQueued();
  AwaitIdle();
}

size_t MatcherService::PokeWatchdog(uint64_t now_ns) {
  if (options_.wedge_timeout_ms == 0) return 0;
  const uint64_t wedge_ns = options_.wedge_timeout_ms * kMillisToNanos;
  std::vector<StatePtr> wedged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const StatePtr& state : in_flight_) {
      const uint64_t started = state->started_ns.load();
      if (started == 0 || state->answered.load()) continue;
      if (now_ns > started && now_ns - started > wedge_ns) {
        wedged.push_back(state);
      }
    }
  }
  size_t recovered = 0;
  for (const StatePtr& state : wedged) {
    Status status = Status::DeadlineExceeded(
        "request wedged for over " +
        std::to_string(options_.wedge_timeout_ms) +
        "ms; answered by watchdog");
    // The wedged worker's eventual answer loses the answered exchange
    // and is discarded; the client sees this typed error instead of a
    // hung connection.
    if (Respond(state, ErrorResponse(state->request, status))) {
      ++recovered;
      WedgedCounter().Add(1);
      if (options_.journal != nullptr || options_.recorder != nullptr) {
        EmitRecord(BuildRecord(*state, now_ns, obs::RequestOutcome::kWedged));
      }
    }
  }
  return recovered;
}

bool MatcherService::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

size_t MatcherService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

size_t MatcherService::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_.size();
}

Response MatcherService::Execute(RequestState* state) {
  // Deadline check at dequeue: work that aged out in the queue is
  // answered without burning model time on a result nobody awaits.
  if (state->deadline_ns != 0 && Now() > state->deadline_ns) {
    return ErrorResponse(
        state->request,
        Status::DeadlineExceeded("deadline expired before execution"));
  }
  switch (state->request.op) {
    case Request::Op::kPredict:
      return ExecutePredict(state);
    case Request::Op::kLoadModel:
    case Request::Op::kRetireModel:
      return ExecuteRegistryOp(*state);
    case Request::Op::kDebugSleep:
      return ExecuteDebugSleep(*state);
    default:
      return ErrorResponse(state->request,
                           Status::InvalidArgument(
                               "op cannot be queued: " +
                               std::string(OpName(state->request.op))));
  }
}

Response MatcherService::ExecutePredict(RequestState* state_ptr) {
  RequestState& state = *state_ptr;
  const Request& request = state.request;
  const RegisteredModel registered = registry_->Get(request.model);
  if (registered.model == nullptr) {
    const std::string name =
        request.model.empty() ? kDefaultModelName : request.model;
    return ErrorResponse(request,
                         Status::NotFound("no model named '" + name + "'"));
  }
  const core::WymModel& model = *registered.model;
  const std::string name =
      request.model.empty() ? kDefaultModelName : request.model;
  // Explanation-bearing entries carry extra payload, so they key
  // separately from probability-only ones.
  const std::string model_id = name + "#" +
                               std::to_string(registered.generation) +
                               (request.explain ? "+x" : "");
  state.generation.store(registered.generation, std::memory_order_relaxed);

  Response response;
  response.id = request.id;
  response.op = OpName(request.op);
  response.model = name;
  response.results.resize(request.pairs.size());

  const size_t slice =
      options_.deadline_slice_pairs == 0 ? 16 : options_.deadline_slice_pairs;
  for (size_t begin = 0; begin < request.pairs.size(); begin += slice) {
    // Deadline re-check between batch slices: a large batch cannot
    // blow past its budget by more than one slice of work.
    if (begin != 0 && state.deadline_ns != 0 && Now() > state.deadline_ns) {
      return ErrorResponse(
          request, Status::DeadlineExceeded(
                       "deadline expired after " + std::to_string(begin) +
                       " of " + std::to_string(request.pairs.size()) +
                       " pairs"));
    }
    const size_t end = std::min(begin + slice, request.pairs.size());
    state.batches.fetch_add(1, std::memory_order_relaxed);

    // Cache pass: resolve hits, collect misses for one batch call.
    std::vector<size_t> miss_indices;
    std::vector<data::EmRecord> miss_records;
    for (size_t i = begin; i < end; ++i) {
      const PredictionKey key =
          MakePredictionKey(request.pairs[i], model_id);
      CachedPrediction cached;
      if (cache_.Lookup(key, &cached)) {
        CacheHitCounter().Add(1);
        state.cached.fetch_add(1, std::memory_order_relaxed);
        response.results[i].prediction = cached.prediction;
        response.results[i].probability = cached.probability;
        response.results[i].explanation_json = cached.explanation_json;
        response.results[i].cached = true;
        continue;
      }
      CacheMissCounter().Add(1);
      miss_indices.push_back(i);
      miss_records.push_back(
          NormalizePair(request.pairs[i], model.num_attributes()));
    }
    if (miss_indices.empty()) continue;

    if (request.explain) {
      for (size_t m = 0; m < miss_indices.size(); ++m) {
        const size_t i = miss_indices[m];
        const core::Explanation explanation =
            model.Explain(miss_records[m]);
        response.results[i].prediction = explanation.prediction;
        response.results[i].probability = explanation.probability;
        response.results[i].explanation_json =
            explain::ExplanationToJson(explanation);
        cache_.Insert(MakePredictionKey(request.pairs[i], model_id),
                      CachedPrediction{
                          explanation.prediction, explanation.probability,
                          response.results[i].explanation_json});
      }
    } else {
      // The offline batch path, verbatim — serve answers are
      // byte-identical to PredictProbaBatch on the same pairs
      // (quarantined records included: same 0.0 fallback).
      core::PredictionReport report;
      const std::vector<double> probabilities =
          model.PredictProbaBatch(miss_records, &report, pool_);
      for (size_t m = 0; m < miss_indices.size(); ++m) {
        const size_t i = miss_indices[m];
        const double probability = probabilities[m];
        const int prediction = probability >= 0.5 ? 1 : 0;
        response.results[i].prediction = prediction;
        response.results[i].probability = probability;
        cache_.Insert(MakePredictionKey(request.pairs[i], model_id),
                      CachedPrediction{prediction, probability, ""});
      }
    }
  }
  return response;
}

Response MatcherService::ExecuteRegistryOp(const RequestState& state) {
  const Request& request = state.request;
  Response response;
  response.id = request.id;
  response.op = OpName(request.op);
  if (request.op == Request::Op::kLoadModel) {
    response.status = registry_->LoadModel(request.name, request.path);
  } else {
    response.status = registry_->Retire(request.name);
  }
  if (response.status.ok()) response.payload_json = ModelListJson();
  return response;
}

Response MatcherService::ExecuteDebugSleep(const RequestState& state) {
  const Request& request = state.request;
  // Simulated wedge for watchdog tests: holds the worker until the
  // requested wall time passes or the watchdog answers first (the
  // answered flag doubles as the escape hatch, so a recovered "wedge"
  // releases its worker instead of leaking it). Real wall clock on
  // purpose — with a fake service clock the sleep must still end.
  const uint64_t sleep_ns = request.sleep_ms * kMillisToNanos;
  const uint64_t begin_ns = obs::NowNanos();
  while (obs::NowNanos() - begin_ns < sleep_ns &&
         !state.answered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Response response;
  response.id = request.id;
  response.op = OpName(request.op);
  response.payload_json =
      "{\"slept_ms\":" + std::to_string(request.sleep_ms) + "}";
  return response;
}

void MatcherService::AppendModelList(std::string* out) const {
  *out += "\"models\":[";
  bool first = true;
  for (const std::string& name : registry_->Names()) {
    if (!first) *out += ',';
    first = false;
    obs::AppendJsonString(name, out);
  }
  *out += ']';
}

std::string MatcherService::ModelListJson() const {
  std::string out = "{";
  AppendModelList(&out);
  out += '}';
  return out;
}

std::string MatcherService::StatsJson() const {
  size_t depth = 0;
  size_t executing = 0;
  bool draining = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    depth = queue_.size();
    executing = in_flight_.size();
    draining = draining_;
  }
  std::string out = "{";
  out += "\"queue_depth\":" + std::to_string(depth);
  out += ",\"queue_bound\":" + std::to_string(options_.queue_bound);
  out += ",\"in_flight\":" + std::to_string(executing);
  out += std::string(",\"draining\":") + (draining ? "true" : "false");
  out += ",\"cache\":{\"entries\":" + std::to_string(cache_.size()) +
         ",\"capacity\":" + std::to_string(cache_.capacity()) +
         ",\"evictions\":" + std::to_string(cache_.evictions()) + "}";
  out += ',';
  AppendModelList(&out);
  // Telemetry sections appear only when the matching sink is
  // configured, keeping the payload identical to pre-telemetry serving
  // when everything is off.
  if (options_.windows != nullptr) {
    out += ",\"windows\":" + options_.windows->WindowsJson();
  }
  if (options_.journal != nullptr) {
    out += ",\"journal\":{\"path\":";
    obs::AppendJsonString(options_.journal->path(), &out);
    out += ",\"lines\":" + std::to_string(options_.journal->lines_written()) +
           ",\"rotations\":" +
           std::to_string(options_.journal->rotations()) + "}";
  }
  if (options_.recorder != nullptr) {
    out += ",\"recorder\":{\"capacity\":" +
           std::to_string(options_.recorder->capacity()) +
           ",\"recorded\":" +
           std::to_string(options_.recorder->recorded()) + "}";
  }
  out += ",\"metrics\":" +
         obs::MetricsToJson(obs::Registry::Global().Snapshot());
  out += "}";
  return out;
}

}  // namespace wym::serve
