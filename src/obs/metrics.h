#ifndef WYM_OBS_METRICS_H_
#define WYM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// \file
/// Metrics registry: named counters, gauges, and fixed-bucket latency
/// histograms (see DESIGN.md "Observability").
///
/// Design constraints, in priority order:
///  1. Observation must never perturb results. No metric feeds back
///     into any computation, and merged values are independent of
///     thread schedule: counters/histograms sum commutative integer
///     shards in a fixed shard order, so Snapshot() is deterministic
///     for a deterministic workload at any WYM_THREADS setting.
///  2. Near-zero cost on hot paths. Mutators are a branch on the
///     cached WYM_METRICS flag plus one relaxed atomic RMW on a
///     cache-line-padded per-thread shard — no locks, no allocation.
///  3. Zero dependencies. This subsystem sits below util (util links
///     obs, not vice versa), so it must not include Status/logging.
///
/// Registration (GetCounter etc.) takes a mutex and may allocate; hot
/// code hoists the lookup into a function-local static reference.
/// Returned references live for the process lifetime — Reset() zeroes
/// values but never invalidates handles.

namespace wym::obs {

/// True unless the WYM_METRICS environment variable is "0" or "off"
/// (metrics default on: the whole point is always-on accounting).
/// Cached on first call; mutators consult it so a disabled process
/// pays only this predictable branch.
bool MetricsEnabled();

namespace internal {

/// Shard count for counters and histograms. A power of two comfortably
/// above the deterministic thread-pool's typical size; threads hash to
/// shards, so totals stay exact even when threads collide.
inline constexpr std::size_t kShards = 16;

/// Index of the calling thread's shard (stable per thread).
std::size_t ShardIndex();

/// One atomic on its own cache line, so concurrent increments from
/// different shards never false-share.
struct alignas(64) PaddedAtomicU64 {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace internal

/// Monotonic event counter. Add() is wait-free; Value() merges shards
/// in fixed order (shard 0..kShards-1), so the merged total is exact
/// and deterministic once all writers have quiesced.
class Counter {
 public:
  void Add(std::uint64_t delta = 1) {
    if (!MetricsEnabled()) return;
    shards_[internal::ShardIndex()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const internal::PaddedAtomicU64& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes all shards. Test/registry use only; racing with writers
  /// yields an unspecified (but valid) total.
  void Reset() {
    for (internal::PaddedAtomicU64& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::array<internal::PaddedAtomicU64, internal::kShards> shards_;
};

/// Instantaneous level (e.g. queue depth) with a monotonic high-water
/// mark. A single atomic: gauges track *current* state, so per-thread
/// sharding would change the semantics, not just the cost.
class Gauge {
 public:
  void Set(std::int64_t v) {
    if (!MetricsEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
    RaiseMax(v);
  }

  void Add(std::int64_t delta) {
    if (!MetricsEnabled()) return;
    const std::int64_t now =
        value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    RaiseMax(now);
  }

  std::int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  std::int64_t Max() const { return max_.load(std::memory_order_relaxed); }

  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void RaiseMax(std::int64_t candidate) {
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !max_.compare_exchange_weak(seen, candidate,
                                       std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Point-in-time view of one histogram; percentiles interpolate within
/// the matched power-of-two bucket.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::vector<std::uint64_t> buckets;

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// p in [0, 1]; e.g. Percentile(0.95). Out-of-range (and NaN) p
  /// clamps: p <= 0 returns the low edge of the first non-empty
  /// bucket, p >= 1 the upper bound of the last non-empty bucket.
  /// Returns 0 for an empty histogram.
  double Percentile(double p) const;

  /// This snapshot minus an earlier `base` of the same histogram
  /// (bucket-wise, saturating at 0) — the per-window view used by
  /// obs::WindowTracker. Counts are monotonic, so for two snapshots of
  /// one histogram the saturation never engages.
  HistogramSnapshot DeltaSince(const HistogramSnapshot& base) const;
};

/// Fixed-bucket latency histogram over non-negative integer samples
/// (nanoseconds by convention). Bucket b spans [2^b, 2^(b+1)) with
/// bucket 0 holding {0, 1}; 40 buckets cover ~18 minutes in ns.
/// Same sharding/merge discipline as Counter.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  void Record(std::uint64_t sample) {
    if (!MetricsEnabled()) return;
    Shard& shard = shards_[internal::ShardIndex()];
    shard.buckets[BucketIndex(sample)].value.fetch_add(
        1, std::memory_order_relaxed);
    shard.sum.value.fetch_add(sample, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;
  void Reset();

  /// Inclusive upper bound of bucket `b` (the value used for
  /// interpolation display).
  static std::uint64_t BucketUpperBound(std::size_t b) {
    return (b + 1 >= 64) ? ~0ull : (1ull << (b + 1)) - 1;
  }

  /// The bucket `sample` is counted in.
  static std::size_t BucketIndex(std::uint64_t sample) {
    std::size_t b = 0;
    while (sample > 1 && b + 1 < kBuckets) {
      sample >>= 1;
      ++b;
    }
    return b;
  }

 private:

  struct Shard {
    std::array<internal::PaddedAtomicU64, kBuckets> buckets;
    internal::PaddedAtomicU64 sum;
  };
  std::array<Shard, internal::kShards> shards_;
};

/// Deterministic (name-sorted) view of every registered metric.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value;
  };
  struct GaugeEntry {
    std::string name;
    std::int64_t value;
    std::int64_t max;
  };
  struct HistogramEntry {
    std::string name;
    HistogramSnapshot hist;
  };
  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;
};

/// Process-wide name -> metric registry. Lookup is mutex-guarded (hoist
/// into a static reference on hot paths); returned references are
/// stable for the process lifetime.
class Registry {
 public:
  static Registry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Name-sorted snapshot of all metrics (std::map iteration order).
  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric without invalidating references.
  /// Intended for tests that assert on deltas from a clean slate.
  void ResetForTest();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Human-readable dump (wym_cli stats); deterministic for a
/// deterministic workload.
std::string RenderMetrics(const MetricsSnapshot& snapshot);

/// JSON object {"counters":{...},"gauges":{...},"histograms":{...}} —
/// the "metrics" section of the wym-bench-report/v1 schema.
std::string MetricsToJson(const MetricsSnapshot& snapshot);

}  // namespace wym::obs

#endif  // WYM_OBS_METRICS_H_
