#ifndef WYM_UTIL_THREAD_POOL_H_
#define WYM_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

/// \file
/// A fixed-size work-queue thread pool — the execution substrate of the
/// deterministic parallel runtime (see DESIGN.md "Threading model").
/// Work is expressed through util::ParallelFor (parallel.h), which
/// guarantees thread-count-independent results; the pool itself is a
/// plain task queue with no ordering guarantees.

namespace wym::util {

/// Fixed set of worker threads draining a FIFO task queue.
///
/// A pool of size <= 1 spawns no workers: Submit() runs the task inline
/// on the calling thread. This makes ThreadPool(1) an exact sequential
/// executor, which is how the benches measure the 1-thread baseline.
class ThreadPool {
 public:
  /// Starts `threads` workers (0 and 1 both mean "no workers, run
  /// submitted tasks inline").
  explicit ThreadPool(size_t threads);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 = inline execution).
  size_t size() const { return workers_.size(); }

  /// Enqueues a task. Tasks must not block on other tasks of the same
  /// pool (ParallelFor handles the nested case by running inline).
  void Submit(std::function<void()> task);

  /// True when the calling thread is a worker of any ThreadPool.
  /// ParallelFor uses this to run nested loops inline instead of
  /// deadlocking on a saturated queue.
  static bool InWorker();

  /// Largest thread count WYM_THREADS may ask for.
  static constexpr size_t kMaxThreads = 256;

  /// Thread count for the global pool: ThreadCountFor(WYM_THREADS).
  static size_t DefaultThreadCount();

  /// The thread count a WYM_THREADS value selects (nullptr = unset): a
  /// decimal integer in [1, kMaxThreads] is taken as is; unset and "0"
  /// mean std::thread::hardware_concurrency(). Any other value also
  /// falls back to hardware concurrency and prints one `wym:` line on
  /// stderr.
  static size_t ThreadCountFor(const char* value);

  /// The lazily-started process-wide pool (sized by DefaultThreadCount
  /// at first use). Library code should reach it through ParallelFor's
  /// default pool argument rather than directly.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  /// A queued task plus the obs::NowNanos() timestamp of its Submit()
  /// (0 when metrics are disabled), so the worker can account queue
  /// wait in the `pool.task_wait_ns` histogram.
  struct QueuedTask {
    std::function<void()> fn;
    std::uint64_t enqueue_ns;
  };

  std::vector<std::thread> workers_;
  std::deque<QueuedTask> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace wym::util

#endif  // WYM_UTIL_THREAD_POOL_H_
