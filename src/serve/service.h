#ifndef WYM_SERVE_SERVICE_H_
#define WYM_SERVE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "obs/recorder.h"
#include "obs/window.h"
#include "serve/model_registry.h"
#include "serve/prediction_cache.h"
#include "serve/protocol.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// \file
/// The matcher service core: admission control, deadline budgets,
/// watchdog recovery, and graceful drain over a ModelRegistry — the
/// transport-independent heart of `wym_serve` (see DESIGN.md "Serving &
/// overload policy").
///
/// Overload policy, in one paragraph: a bounded queue admits at most
/// `queue_bound` requests; everything beyond is *shed immediately* with
/// a typed `ResourceExhausted` response (never blocked, never dropped).
/// Every admitted request carries a deadline budget; the budget is
/// checked at dequeue and between batch slices of 16 pairs, and expired
/// work is answered `DeadlineExceeded` with how far it got. A watchdog
/// turns a wedged worker into a clean error response. Drain stops admission
/// (`ResourceExhausted: draining`), finishes or deadlines-out in-flight
/// work, and leaves the stats snapshot as the last word. Every request
/// is answered exactly once, through every one of those paths.
///
/// The service is transport-free: `Admit` takes a parsed Request plus a
/// responder callback, so the socket server, tests, and an embedding
/// process all share one admission surface.

namespace wym::serve {

struct ServiceOptions {
  /// Maximum queued (admitted, not yet executing) requests; beyond this
  /// Admit sheds with ResourceExhausted.
  size_t queue_bound = 64;
  /// Deadline budget for requests that do not carry their own
  /// `deadline_ms`; 0 = no default deadline.
  uint64_t default_deadline_ms = 0;
  /// A request executing longer than this is considered wedged and is
  /// answered with a typed error by the watchdog; 0 disables.
  uint64_t wedge_timeout_ms = 30000;
  /// Prediction-cache capacity in entries; 0 disables caching.
  size_t cache_entries = 4096;
  /// Schedule queued work onto the pool as it is admitted. Tests turn
  /// this off to drive ProcessQueued() deterministically.
  bool auto_dispatch = true;
  /// Allow the test-only debug_sleep op (watchdog fixtures).
  bool enable_debug_ops = false;
  /// Time source for admission stamps, deadlines, and the watchdog.
  /// Defaults to obs::NowNanos; tests install a fake clock to make
  /// deadline and wedge behaviour fully deterministic.
  std::function<uint64_t()> now_ns;
  /// Telemetry sinks, all optional and caller-owned (must outlive the
  /// service). Null = that sink is off (branch-only cost on the serve
  /// path); none of them feeds back into any computation.
  /// Request journal: one wym-journal/v1 line per answered request.
  obs::EventLog* journal = nullptr;
  /// Flight recorder: every answered request is also copied into the
  /// postmortem ring.
  obs::FlightRecorder* recorder = nullptr;
  /// Windowed stats: read (never written) by the stats op, which
  /// embeds WindowsJson() when non-null. Ticking it is the transport
  /// loop's job.
  obs::WindowTracker* windows = nullptr;
};

class MatcherService {
 public:
  /// Invoked exactly once per request with the final response. Called
  /// on whichever thread finishes the request (admission thread for
  /// sheds and inline ops, worker for executed requests, watchdog
  /// thread for wedge recoveries) — must be thread-safe and non-blocking.
  using Responder = std::function<void(const Response&)>;

  /// `registry` must outlive the service. `pool` is the execution
  /// substrate for auto-dispatch (nullptr = the global WYM_THREADS
  /// pool).
  MatcherService(ModelRegistry* registry, ServiceOptions options,
                 util::ThreadPool* pool = nullptr);

  /// Waits for every auto-dispatched task to return: a task still
  /// touches the service after its response is out.
  ~MatcherService();

  MatcherService(const MatcherService&) = delete;
  MatcherService& operator=(const MatcherService&) = delete;

  /// Admission: answers cheap introspection ops (ping/stats/
  /// list_models) inline; queues work ops within the bound; sheds the
  /// rest. The returned Status is the admission outcome (Ok = admitted
  /// or answered inline); on shed the responder has already been
  /// invoked with the same typed error — callers never answer twice.
  Status Admit(Request request, Responder responder);

  /// Executes the oldest queued request on the calling thread; false
  /// when the queue was empty. The public face of the worker loop, so
  /// tests (auto_dispatch=false) drive execution deterministically.
  bool ProcessOne();

  /// ProcessOne until the queue is empty; returns how many ran.
  size_t ProcessQueued();

  /// Stops admission: every subsequent Admit of a work op is shed with
  /// "draining". Idempotent.
  void BeginDrain();

  /// Blocks until no request is queued or executing.
  void AwaitIdle();

  /// BeginDrain + help finish the backlog on the calling thread +
  /// AwaitIdle. After Drain returns, every admitted request has been
  /// answered (zero in-flight losses).
  void Drain();

  /// Answers every request that has been executing longer than the
  /// wedge timeout (as of `now_ns`) with a typed error; the wedged
  /// worker's own eventual answer is discarded by the answered flag.
  /// Returns how many were recovered. Called by the server's watchdog
  /// thread; takes the timestamp as a parameter so tests can drive it
  /// with a synthetic clock.
  size_t PokeWatchdog(uint64_t now_ns);

  bool draining() const;
  size_t queue_depth() const;
  /// Requests dequeued but not yet finished.
  size_t in_flight() const;

  /// The stats payload served by the `stats` op (and flushed as the
  /// final snapshot on shutdown): queue/cache/model state plus the full
  /// obs metrics registry.
  std::string StatsJson() const;

  const ServiceOptions& options() const { return options_; }

 private:
  /// One admitted request: wire data plus the answered-exactly-once
  /// rendezvous state shared by worker and watchdog.
  struct RequestState {
    Request request;
    Responder responder;
    /// Admission sequence (mints the journal id "q<seq>").
    uint64_t sequence = 0;
    uint64_t admit_ns = 0;
    /// Absolute deadline (admit_ns + budget); 0 = none.
    uint64_t deadline_ns = 0;
    /// 0 until a worker dequeues it (the watchdog only times executing
    /// requests).
    std::atomic<uint64_t> started_ns{0};
    std::atomic<bool> answered{false};
    /// Telemetry progress, written by the executing worker and read by
    /// whichever thread answers (worker or watchdog) — atomic so a
    /// wedge-time journal record sees a consistent partial count.
    std::atomic<uint64_t> generation{0};
    std::atomic<uint32_t> batches{0};
    std::atomic<uint32_t> cached{0};
  };
  using StatePtr = std::shared_ptr<RequestState>;

  uint64_t Now() const;

  /// Invokes the responder exactly once (stamping the minted request
  /// id into the response); false when someone (the watchdog) already
  /// answered.
  bool Respond(const StatePtr& state, Response response);

  /// Fills a journal record for `state` as answered at `end_ns`. Pure
  /// bookkeeping; no clock reads.
  obs::RequestRecord BuildRecord(const RequestState& state, uint64_t end_ns,
                                 obs::RequestOutcome outcome) const;

  /// Appends `record` to the journal and flight recorder (whichever
  /// are configured). The single emission helper behind every answer
  /// path.
  void EmitRecord(const obs::RequestRecord& record);

  /// Journal outcome for an executed (non-shed, non-wedged) response.
  obs::RequestOutcome ClassifyOutcome(const RequestState& state,
                                      const Response& response) const;

  /// Builds the op-specific response (deadline checks included).
  Response Execute(RequestState* state);
  Response ExecutePredict(RequestState* state);
  Response ExecuteRegistryOp(const RequestState& state);
  Response ExecuteDebugSleep(const RequestState& state);

  /// `{"models":[...]}`, the payload of list_models and registry ops.
  std::string ModelListJson() const;
  /// Appends the `"models":[...]` member shared by ModelListJson and
  /// StatsJson.
  void AppendModelList(std::string* out) const;

  ModelRegistry* const registry_;
  const ServiceOptions options_;
  util::ThreadPool* const pool_;
  PredictionCache cache_;
  /// Admission sequence: every request (inline, queued, or shed) takes
  /// the next value; the journal id namespace.
  std::atomic<uint64_t> next_sequence_{1};

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::deque<StatePtr> queue_;
  /// Dequeued, still executing (watchdog scan set).
  std::vector<StatePtr> in_flight_;
  /// Auto-dispatched ProcessOne tasks submitted and not yet returned.
  size_t dispatched_ = 0;
  bool draining_ = false;
};

}  // namespace wym::serve

#endif  // WYM_SERVE_SERVICE_H_
