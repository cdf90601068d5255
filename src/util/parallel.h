#ifndef WYM_UTIL_PARALLEL_H_
#define WYM_UTIL_PARALLEL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "util/thread_pool.h"

/// \file
/// Deterministic data-parallel loops on top of ThreadPool: ParallelFor
/// for one loop, Team for many back-to-back phases.
///
/// The determinism contract: the chunk structure of ParallelFor depends
/// ONLY on (n, grain) — never on the pool size or scheduling — so a
/// caller that keeps per-chunk accumulators and reduces them in chunk
/// order computes a bit-identical result at every thread count,
/// including the inline sequential path. See DESIGN.md "Threading
/// model".

namespace wym::util {

/// Number of chunks ParallelFor(n, grain, ...) will create.
inline size_t NumChunks(size_t n, size_t grain) {
  grain = std::max<size_t>(grain, 1);
  return (n + grain - 1) / grain;
}

/// Runs fn(begin, end, chunk) over fixed chunks of [0, n):
/// chunk c covers [c*grain, min(n, (c+1)*grain)).
///
/// Chunks run on `pool` (the global pool when nullptr). The call runs
/// inline, in chunk order, when there is a single chunk, the pool has
/// no workers, or the caller is itself a pool worker (nested loops
/// never deadlock).
///
/// Exceptions: on the inline path the first throwing chunk propagates
/// immediately; on the parallel path every chunk still runs and the
/// exception of the lowest-index failing chunk is rethrown — in both
/// cases the caller observes the lowest-index failure.
inline void ParallelFor(
    size_t n, size_t grain,
    const std::function<void(size_t begin, size_t end, size_t chunk)>& fn,
    ThreadPool* pool = nullptr) {
  if (n == 0) return;
  grain = std::max<size_t>(grain, 1);
  const size_t chunks = NumChunks(n, grain);
  ThreadPool& executor = pool != nullptr ? *pool : ThreadPool::Global();

  if (chunks == 1 || executor.size() <= 1 || ThreadPool::InWorker()) {
    for (size_t c = 0; c < chunks; ++c) {
      fn(c * grain, std::min(n, (c + 1) * grain), c);
    }
    return;
  }

  std::vector<std::exception_ptr> errors(chunks);
  std::mutex mu;
  std::condition_variable cv;
  size_t pending = chunks;
  for (size_t c = 0; c < chunks; ++c) {
    executor.Submit([&, c] {
      try {
        fn(c * grain, std::min(n, (c + 1) * grain), c);
      } catch (...) {
        errors[c] = std::current_exception();
      }
      // Notify while holding the lock: the waiter cannot observe
      // pending == 0 and destroy cv/mu (by returning) until this task
      // has released the mutex, i.e. fully left notify_one.
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pending == 0; });
  }
  for (size_t c = 0; c < chunks; ++c) {
    if (errors[c]) std::rethrow_exception(errors[c]);
  }
}

/// CPUs this process may run on (its affinity mask; at least 1).
size_t AvailableCpus();

/// A team of threads for many short, back-to-back parallel phases.
///
/// A ParallelFor call wakes sleeping pool workers, which costs tens of
/// microseconds; a loop of thousands of sub-millisecond phases pays that
/// on every phase. A Team keeps its helpers awake between phases: the
/// constructor submits up to min(pool size, AvailableCpus()) - 1 helper
/// tasks to `pool` (the global pool when nullptr), and each Run hands a
/// fixed list of chunks, one at a time from an atomic counter, to the
/// caller and whichever helpers have joined. Between phases a helper
/// spins for a bounded time, then blocks on a futex (std::atomic::wait).
///
/// The team never waits for a helper to join: the caller runs every
/// chunk that nobody else claims. So a busy pool, a caller that is
/// itself a pool worker and a pool of size <= 1 all just run the phases
/// inline. The chunk list is the caller's, so results never depend on
/// who ran a chunk. While the team lives its helpers occupy pool
/// workers; `fn` must not wait for other work on the same pool.
class Team {
 public:
  explicit Team(ThreadPool* pool = nullptr);

  /// Releases the helpers; those still queued exit as soon as they run.
  ~Team();

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Largest chunk count one Run accepts.
  static constexpr size_t kMaxChunks = size_t{1} << 19;

  /// Runs fn(chunk) for every chunk in [0, chunks) and returns when all
  /// have run. Exceptions: as ParallelFor — inline (no helpers, or one
  /// chunk) the first throwing chunk propagates at once; otherwise every
  /// chunk still runs and the lowest-index failure is rethrown.
  void Run(size_t chunks, const std::function<void(size_t chunk)>& fn);

  /// Helper tasks submitted to the pool (0 = every phase runs inline).
  size_t helpers() const { return helpers_; }

 private:
  struct Shared;

  std::shared_ptr<Shared> shared_;
  size_t helpers_ = 0;
};

}  // namespace wym::util

#endif  // WYM_UTIL_PARALLEL_H_
