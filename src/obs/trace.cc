#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string_view>
#include <tuple>
#include <vector>

#include "obs/json.h"
#include "util/stopwatch.h"

namespace wym::obs {

namespace {

/// One recorded complete event. Name/category are unowned string
/// literals (documented contract in trace.h).
struct TraceEvent {
  const char* name;
  const char* category;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  std::uint32_t tid;
};

/// Per-thread event buffer. Owned by the collector (so events survive
/// thread exit), written by exactly one thread, drained under its
/// mutex at flush time.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
};

/// Process-wide collector. `active` gates the hot path; everything
/// else is touched only on registration and flush.
struct Collector {
  std::atomic<bool> active{false};
  std::mutex mu;  // Guards path and buffers.
  std::string path;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 0;

  Collector() {
    const char* env = std::getenv("WYM_TRACE");
    if (env != nullptr && env[0] != '\0') {
      path = env;
      active.store(true, std::memory_order_release);
      // Flush on clean exit so WYM_TRACE works with any entry point
      // (CLI subcommands, tests, benches) without explicit plumbing.
      std::atexit([] {
        std::string error;
        if (!StopTracingAndWrite(&error)) {
          std::fprintf(stderr, "wym: WYM_TRACE flush failed: %s\n",
                       error.c_str());
        }
      });
    }
  }
};

Collector& GetCollector() {
  static Collector* collector = new Collector();  // wym-lint: allow(no-raw-new-delete): intentionally leaked singleton; spans may close during static destruction, after a static value would already be gone.
  return *collector;
}

/// The calling thread's buffer, registered with the collector on first
/// use and cached thread-locally.
ThreadBuffer& GetThreadBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    Collector& collector = GetCollector();
    const std::lock_guard<std::mutex> lock(collector.mu);
    collector.buffers.push_back(std::make_unique<ThreadBuffer>());
    collector.buffers.back()->tid = collector.next_tid++;
    return collector.buffers.back().get();
  }();
  return *buffer;
}

}  // namespace

std::uint64_t NowNanos() {
  // Single process-wide epoch; magic-static init is thread-safe.
  static const Stopwatch epoch;
  return epoch.ElapsedNanos();
}

bool TracingActive() {
  return GetCollector().active.load(std::memory_order_acquire);
}

void StartTracing(const std::string& path) {
  Collector& collector = GetCollector();
  {
    const std::lock_guard<std::mutex> lock(collector.mu);
    collector.path = path;
  }
  collector.active.store(true, std::memory_order_release);
}

bool StopTracingAndWrite(std::string* error) {
  Collector& collector = GetCollector();
  if (!collector.active.exchange(false, std::memory_order_acq_rel)) {
    if (error != nullptr) *error = "tracing was not active";
    return false;
  }

  std::vector<TraceEvent> events;
  std::string path;
  {
    const std::lock_guard<std::mutex> lock(collector.mu);
    path = collector.path;
    for (const std::unique_ptr<ThreadBuffer>& buffer : collector.buffers) {
      const std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      events.insert(events.end(), buffer->events.begin(),
                    buffer->events.end());
      buffer->events.clear();
    }
  }
  // Deterministic file order for a deterministic workload: sort by
  // time, then thread, then name (chrome://tracing does not care, but
  // diffs and tests do).
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return std::make_tuple(a.start_ns, a.tid, a.dur_ns,
                                     std::string_view(a.name)) <
                     std::make_tuple(b.start_ns, b.tid, b.dur_ns,
                                     std::string_view(b.name));
            });

  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    if (error != nullptr) *error = "cannot open trace file: " + path;
    return false;
  }
  // Chrome trace_event JSON object format; "ts"/"dur" are microseconds
  // (fractional allowed), hence the /1000.0 from our nanosecond spans.
  // The text goes out in blocks, so a long trace never sits in memory
  // twice.
  constexpr std::size_t kBlockBytes = 1 << 16;
  bool written = true;
  std::string text = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) text += ',';
    text += "\n{\"name\":";
    AppendJsonString(e.name, &text);
    text += ",\"cat\":";
    AppendJsonString(e.category, &text);
    text += ",\"ph\":\"X\",\"pid\":1,\"tid\":";
    AppendJsonUint(e.tid, &text);
    text += ",\"ts\":";
    AppendJsonFixed(static_cast<double>(e.start_ns) / 1000.0, 3, &text);
    text += ",\"dur\":";
    AppendJsonFixed(static_cast<double>(e.dur_ns) / 1000.0, 3, &text);
    text += '}';
    if (text.size() >= kBlockBytes) {
      written = written &&
                std::fwrite(text.data(), 1, text.size(), file) == text.size();
      text.clear();
    }
  }
  text += "\n]}\n";
  written =
      written && std::fwrite(text.data(), 1, text.size(), file) == text.size();
  if (std::fclose(file) != 0 || !written) {
    if (error != nullptr) *error = "write failed: " + path;
    return false;
  }
  return true;
}

void AppendCompleteEvent(const char* name, const char* category,
                         std::uint64_t start_ns, std::uint64_t dur_ns) {
  if (!TracingActive()) return;
  ThreadBuffer& buffer = GetThreadBuffer();
  const std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.push_back(
      TraceEvent{name, category, start_ns, dur_ns, buffer.tid});
}

SpanScope::SpanScope(const char* name, const char* category)
    : name_(name),
      category_(category),
      start_ns_(0),
      active_(TracingActive()) {
  if (active_) start_ns_ = NowNanos();
}

SpanScope::~SpanScope() {
  if (!active_) return;
  // Re-check: tracing may have stopped mid-span; dropping the event is
  // better than writing to a drained buffer set.
  if (!TracingActive()) return;
  const std::uint64_t end_ns = NowNanos();
  AppendCompleteEvent(name_, category_, start_ns_,
                      end_ns >= start_ns_ ? end_ns - start_ns_ : 0);
}

}  // namespace wym::obs
