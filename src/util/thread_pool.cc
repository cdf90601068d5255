#include "util/thread_pool.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/string_util.h"

// The pool publishes queue/steal counters and spans itself so every
// parallel section is traced; obs sits below util at link time.
// wym-lint: allow(layer-order): sanctioned util->obs edge (see DESIGN.md)
#include "obs/metrics.h"
// wym-lint: allow(layer-order): sanctioned util->obs edge (see DESIGN.md)
#include "obs/trace.h"

namespace wym::util {

namespace {
thread_local bool t_in_worker = false;

// Pool metrics, resolved once. Mutators no-op when WYM_METRICS is off,
// so the inline (size<=1) path pays one branch per Submit.
obs::Counter& TasksSubmitted() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("pool.tasks_submitted");
  return counter;
}
obs::Counter& TasksInline() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("pool.tasks_inline");
  return counter;
}
obs::Gauge& QueueDepth() {
  static obs::Gauge& gauge =
      obs::Registry::Global().GetGauge("pool.queue_depth");
  return gauge;
}
obs::Histogram& TaskWaitNs() {
  static obs::Histogram& histogram =
      obs::Registry::Global().GetHistogram("pool.task_wait_ns");
  return histogram;
}
obs::Histogram& TaskRunNs() {
  static obs::Histogram& histogram =
      obs::Registry::Global().GetHistogram("pool.task_run_ns");
  return histogram;
}
}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  if (threads <= 1) return;
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    TasksInline().Add(1);
    task();
    return;
  }
  TasksSubmitted().Add(1);
  const std::uint64_t enqueue_ns =
      obs::MetricsEnabled() ? obs::NowNanos() : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(QueuedTask{std::move(task), enqueue_ns});
  }
  QueueDepth().Add(1);
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    QueueDepth().Add(-1);
    const bool metrics = obs::MetricsEnabled();
    const std::uint64_t start_ns = metrics ? obs::NowNanos() : 0;
    if (metrics && task.enqueue_ns != 0 && start_ns >= task.enqueue_ns) {
      TaskWaitNs().Record(start_ns - task.enqueue_ns);
    }
    {
      obs::SpanScope span("pool.task");
      task.fn();
    }
    if (metrics) TaskRunNs().Record(obs::NowNanos() - start_ns);
  }
}

bool ThreadPool::InWorker() { return t_in_worker; }

size_t ThreadPool::DefaultThreadCount() {
  return ThreadCountFor(std::getenv("WYM_THREADS"));
}

size_t ThreadPool::ThreadCountFor(const char* value) {
  uint64_t parsed = 0;
  if (value != nullptr && !strings::ParseUint(value, kMaxThreads, &parsed)) {
    std::fprintf(stderr, "wym: ignoring WYM_THREADS='%s' (expected 0-%zu)\n",
                 value, kMaxThreads);
    parsed = 0;
  }
  if (parsed >= 1) return parsed;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(DefaultThreadCount());
  return pool;
}

}  // namespace wym::util
