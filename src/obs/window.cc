#include "obs/window.h"

#include <utility>

#include "obs/json.h"

namespace wym::obs {

namespace {

std::uint64_t SaturatingDelta(std::uint64_t now, std::uint64_t then) {
  return now > then ? now - then : 0;
}

}  // namespace

void RenderWindowStats(const WindowStats& stats, std::string* out) {
  // Fixed key order and fixed precision: the rendered artifact must be
  // byte-stable for a given stats value (it is diffed in tests and
  // validated in check.sh).
  *out += "{\"window_ns\":";
  AppendJsonUint(stats.window_ns, out);
  *out += ",\"requests\":";
  AppendJsonUint(stats.requests, out);
  *out += ",\"qps\":";
  AppendJsonFixed(stats.qps, 3, out);
  *out += ",\"shed\":";
  AppendJsonUint(stats.shed, out);
  *out += ",\"shed_rate\":";
  AppendJsonFixed(stats.shed_rate, 6, out);
  *out += ",\"cache_hits\":";
  AppendJsonUint(stats.cache_hits, out);
  *out += ",\"cache_misses\":";
  AppendJsonUint(stats.cache_misses, out);
  *out += ",\"cache_hit_rate\":";
  AppendJsonFixed(stats.cache_hit_rate, 6, out);
  *out += ",\"p50_ns\":";
  AppendJsonFixed(stats.p50_ns, 1, out);
  *out += ",\"p95_ns\":";
  AppendJsonFixed(stats.p95_ns, 1, out);
  *out += ",\"p99_ns\":";
  AppendJsonFixed(stats.p99_ns, 1, out);
  *out += '}';
}

WindowTracker::WindowTracker() : WindowTracker(Options()) {}

WindowTracker::WindowTracker(Options options)
    : options_(std::move(options)),
      ring_(options_.capacity == 0 ? 1 : options_.capacity) {}

WindowSample WindowTracker::SampleRegistry() const {
  Registry& registry = Registry::Global();
  WindowSample sample;
  sample.requests = registry.GetCounter(options_.requests_metric).Value();
  sample.shed = registry.GetCounter(options_.shed_metric).Value();
  sample.cache_hits =
      registry.GetCounter(options_.cache_hits_metric).Value();
  sample.cache_misses =
      registry.GetCounter(options_.cache_misses_metric).Value();
  sample.latency =
      registry.GetHistogram(options_.latency_metric).Snapshot();
  return sample;
}

void WindowTracker::Observe(std::uint64_t now_ns, WindowSample sample) {
  Sample stamped{now_ns, std::move(sample)};
  const std::lock_guard<std::mutex> lock(mu_);
  if (size_ < ring_.size()) {
    ring_[(head_ + size_) % ring_.size()] = std::move(stamped);
    ++size_;
  } else {
    ring_[head_] = std::move(stamped);
    head_ = (head_ + 1) % ring_.size();
  }
}

void WindowTracker::Tick(std::uint64_t now_ns) {
  // Sample outside the lock: registry reads take the registry mutex
  // plus shard loads, and holding two locks here would be the only
  // place obs nests them.
  Observe(now_ns, SampleRegistry());
}

WindowStats WindowTracker::DeltaLocked(std::uint64_t window_ns) const {
  WindowStats stats;
  if (size_ < 2) return stats;
  const Sample& newest = AtLocked(size_ - 1);
  // Baseline: the latest sample at least window_ns older than the
  // newest, else the oldest sample held. Samples are in nondecreasing
  // now_ns order (one writer, monotonic injected clock).
  const Sample* base = &AtLocked(0);
  for (std::size_t i = size_ - 1; i-- > 0;) {
    const Sample& candidate = AtLocked(i);
    if (candidate.now_ns + window_ns <= newest.now_ns) {
      base = &candidate;
      break;
    }
  }

  const WindowSample& now = newest.values;
  const WindowSample& then = base->values;
  stats.window_ns = SaturatingDelta(newest.now_ns, base->now_ns);
  stats.requests = SaturatingDelta(now.requests, then.requests);
  stats.shed = SaturatingDelta(now.shed, then.shed);
  stats.cache_hits = SaturatingDelta(now.cache_hits, then.cache_hits);
  stats.cache_misses = SaturatingDelta(now.cache_misses, then.cache_misses);
  if (stats.window_ns > 0) {
    stats.qps = static_cast<double>(stats.requests) /
                (static_cast<double>(stats.window_ns) / 1e9);
  }
  if (stats.requests > 0) {
    stats.shed_rate = static_cast<double>(stats.shed) /
                      static_cast<double>(stats.requests);
  }
  const std::uint64_t lookups = stats.cache_hits + stats.cache_misses;
  if (lookups > 0) {
    stats.cache_hit_rate = static_cast<double>(stats.cache_hits) /
                           static_cast<double>(lookups);
  }
  const HistogramSnapshot delta = now.latency.DeltaSince(then.latency);
  stats.p50_ns = delta.Percentile(0.50);
  stats.p95_ns = delta.Percentile(0.95);
  stats.p99_ns = delta.Percentile(0.99);
  return stats;
}

WindowStats WindowTracker::Delta(std::uint64_t window_ns) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return DeltaLocked(window_ns);
}

void WindowTracker::AppendWindowsLocked(std::string* out) const {
  *out += '{';
  for (std::size_t i = 0; i < options_.window_ns.size(); ++i) {
    if (i != 0) *out += ',';
    *out += '"';
    AppendJsonUint(options_.window_ns[i] / 1000000000ull, out);
    *out += "s\":";
    RenderWindowStats(DeltaLocked(options_.window_ns[i]), out);
  }
  *out += '}';
}

std::string WindowTracker::WindowsJson() const {
  std::string out;
  const std::lock_guard<std::mutex> lock(mu_);
  AppendWindowsLocked(&out);
  return out;
}

std::string WindowTracker::TelemetryJson() const {
  std::string out = "{\"schema\":\"wym-telemetry/v1\",\"now_ns\":";
  const std::lock_guard<std::mutex> lock(mu_);
  AppendJsonUint(size_ > 0 ? AtLocked(size_ - 1).now_ns : 0, &out);
  out += ",\"samples\":";
  AppendJsonUint(size_, &out);
  out += ",\"windows\":";
  AppendWindowsLocked(&out);
  out += "}\n";
  return out;
}

std::size_t WindowTracker::samples() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

}  // namespace wym::obs
