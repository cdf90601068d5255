#include "util/parallel.h"

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>

#include "util/logging.h"

namespace wym::util {

namespace {

// Team state word: [stop:1][phase:23][chunks:20][next:20]. One word, so a
// claim (fetch_add on `next`) also tells the claimer which phase and how
// many chunks it landed in.
constexpr uint64_t kNextBits = 20;
constexpr uint64_t kChunkBits = 20;
constexpr uint64_t kFieldMask = (uint64_t{1} << kNextBits) - 1;
constexpr uint64_t kPhaseShift = kNextBits + kChunkBits;
constexpr uint64_t kPhaseMask = (uint64_t{1} << 23) - 1;
constexpr uint64_t kStopBit = uint64_t{1} << 63;
// Each member makes at most one empty claim per phase, so `next` stays
// below chunks + members and never carries into the chunk field.
static_assert(Team::kMaxChunks + CPU_SETSIZE < (uint64_t{1} << kNextBits));

size_t NextOf(uint64_t word) { return word & kFieldMask; }
size_t ChunksOf(uint64_t word) { return (word >> kNextBits) & kFieldMask; }
// The phase id with the stop bit: a stopped word differs from every phase.
uint64_t PhaseOf(uint64_t word) { return word >> kPhaseShift; }

// Pause iterations a helper spins between phases before it blocks, and
// the caller before it yields while the last chunks finish: about 90 us on
// an AMD EPYC vCPU (pause latency varies by CPU), longer than the serial
// gap between back-to-back phases and far shorter than a time slice.
constexpr int kSpinIterations = 4000;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<size_t>(count);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// What the caller and the helpers share. Helper tasks own a reference, so
// a task that the pool starts after the team is gone still finds it.
//
// Publication: the caller writes `fn`, `done` and the error slot, then
// stores a new `word` (phase + 1, chunks, next = 0). Every claim is a
// fetch_add on `word`; a claim whose `next` is below its `chunks` owns
// that chunk of that phase, and only an owner reads `fn`. The phase
// cannot end (the caller waits for `done == chunks`) while an owner runs,
// so `fn` stays the phase's own. A claim past `chunks` owns nothing and
// touches nothing else; a helper then waits for the phase to change.
struct Team::Shared {
  std::atomic<uint64_t> word{0};
  std::atomic<size_t> done{0};
  // Helpers blocked in word.wait; the caller notifies only when nonzero.
  std::atomic<size_t> sleepers{0};
  const std::function<void(size_t)>* fn = nullptr;

  std::mutex error_mu;
  size_t error_chunk = 0;  // Guarded by error_mu.
  std::exception_ptr error;  // Guarded by error_mu.

  // Runs `chunk` of the current phase and counts it done.
  void RunChunk(size_t chunk) {
    try {
      (*fn)(chunk);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (error == nullptr || chunk < error_chunk) {
        error = std::current_exception();
        error_chunk = chunk;
      }
    }
    done.fetch_add(1, std::memory_order_release);
  }

  // Claims and runs chunks until a claim comes back empty; returns the
  // word of that empty claim.
  uint64_t Drain() {
    for (;;) {
      const uint64_t claim = word.fetch_add(1, std::memory_order_acq_rel);
      if (NextOf(claim) >= ChunksOf(claim)) return claim;
      RunChunk(NextOf(claim));
    }
  }

  void HelperLoop() {
    uint64_t seen = 0;  // Phase 0: nothing published yet.
    for (;;) {
      uint64_t w = word.load(std::memory_order_acquire);
      for (int spin = 0; PhaseOf(w) == seen; ++spin) {
        if (spin < kSpinIterations) {
          CpuRelax();
          w = word.load(std::memory_order_acquire);
          continue;
        }
        // Announce the sleep before the last look: either this load sees
        // the new phase or the publisher sees sleepers > 0 and notifies.
        sleepers.fetch_add(1, std::memory_order_seq_cst);
        w = word.load(std::memory_order_seq_cst);
        if (PhaseOf(w) == seen) word.wait(w, std::memory_order_seq_cst);
        sleepers.fetch_sub(1, std::memory_order_relaxed);
        w = word.load(std::memory_order_acquire);
        spin = 0;
      }
      if ((w & kStopBit) != 0) return;
      const uint64_t last = Drain();
      if ((last & kStopBit) != 0) return;
      seen = PhaseOf(last);
    }
  }

  void Publish(uint64_t next_word) {
    word.store(next_word, std::memory_order_seq_cst);
    if (sleepers.load(std::memory_order_seq_cst) != 0) word.notify_all();
  }
};

Team::Team(ThreadPool* pool) : shared_(std::make_shared<Shared>()) {
  ThreadPool& executor = pool != nullptr ? *pool : ThreadPool::Global();
  if (ThreadPool::InWorker()) return;
  const size_t members = std::min(executor.size(), AvailableCpus());
  if (members <= 1) return;
  helpers_ = members - 1;
  for (size_t h = 0; h < helpers_; ++h) {
    executor.Submit([shared = shared_] { shared->HelperLoop(); });
  }
}

Team::~Team() {
  if (helpers_ > 0) shared_->Publish(kStopBit);
}

void Team::Run(size_t chunks, const std::function<void(size_t chunk)>& fn) {
  if (chunks == 0) return;
  if (helpers_ == 0 || chunks == 1) {
    for (size_t c = 0; c < chunks; ++c) fn(c);
    return;
  }
  WYM_CHECK_LE(chunks, kMaxChunks);
  Shared& s = *shared_;
  s.fn = &fn;
  s.done.store(0, std::memory_order_relaxed);
  uint64_t phase = (PhaseOf(s.word.load(std::memory_order_relaxed)) + 1) &
                   kPhaseMask;
  if (phase == 0) phase = 1;  // Phase 0 means "nothing published".
  s.Publish(phase << kPhaseShift | uint64_t{chunks} << kNextBits);
  s.Drain();
  for (int spin = 0; s.done.load(std::memory_order_acquire) < chunks;
       ++spin) {
    if (spin < kSpinIterations) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(s.error_mu);
    error = std::exchange(s.error, nullptr);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace wym::util
