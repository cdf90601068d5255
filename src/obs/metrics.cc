#include "obs/metrics.h"

#include <cstdlib>
#include <sstream>

#include "obs/json.h"

namespace wym::obs {

bool MetricsEnabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("WYM_METRICS");
    if (env == nullptr) return true;
    const std::string v(env);
    return !(v == "0" || v == "off" || v == "OFF");
  }();
  return enabled;
}

namespace internal {

std::size_t ShardIndex() {
  // Threads take shards round-robin from a process-wide ticket; the
  // assignment is stable per thread (thread_local) and collisions are
  // harmless because shards merge by summation.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

}  // namespace internal

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0 || buckets.empty()) return 0.0;
  // !(p > 0) also catches NaN: both clamp to the low edge rather than
  // propagating NaN through the interpolation below.
  if (!(p > 0.0)) p = 0.0;
  if (p > 1.0) p = 1.0;
  const double target = p * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) < target) continue;
    // Interpolate linearly inside bucket b: [lower, upper]. With all
    // mass in one bucket this sweeps lower -> upper as p goes 0 -> 1
    // (p = 0 returns the bucket's low edge exactly).
    const double lower = b == 0 ? 0.0 : static_cast<double>(1ull << b);
    const double upper = static_cast<double>(Histogram::BucketUpperBound(b));
    const double into =
        (target - static_cast<double>(before)) /
        static_cast<double>(buckets[b]);
    return lower + into * (upper - lower);
  }
  // Rounding pushed `target` past every populated bucket: clamp to the
  // upper bound of the last *non-empty* bucket, not the last bucket of
  // the array (which would overstate a fast histogram by orders of
  // magnitude).
  for (std::size_t b = buckets.size(); b-- > 0;) {
    if (buckets[b] != 0) {
      return static_cast<double>(Histogram::BucketUpperBound(b));
    }
  }
  return 0.0;
}

HistogramSnapshot HistogramSnapshot::DeltaSince(
    const HistogramSnapshot& base) const {
  HistogramSnapshot delta;
  delta.buckets.assign(buckets.size(), 0);
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const std::uint64_t then = b < base.buckets.size() ? base.buckets[b] : 0;
    delta.buckets[b] = buckets[b] > then ? buckets[b] - then : 0;
    delta.count += delta.buckets[b];
  }
  delta.sum = sum > base.sum ? sum - base.sum : 0;
  return delta;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.assign(kBuckets, 0);
  // Fixed shard order, commutative integer sums: the merged snapshot is
  // independent of which thread recorded which sample.
  for (const Shard& shard : shards_) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      snap.buckets[b] += shard.buckets[b].value.load(std::memory_order_relaxed);
    }
    snap.sum += shard.sum.value.load(std::memory_order_relaxed);
  }
  for (std::uint64_t c : snap.buckets) snap.count += c;
  return snap;
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    for (internal::PaddedAtomicU64& bucket : shard.buckets) {
      bucket.value.store(0, std::memory_order_relaxed);
    }
    shard.sum.value.store(0, std::memory_order_relaxed);
  }
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // wym-lint: allow(no-raw-new-delete): intentionally leaked process-lifetime singleton; a static value could be destroyed before late metric writers during shutdown.
  return *registry;
}

Counter& Registry::GetCounter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::GetGauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot Registry::Snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->Value(), gauge->Max()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.push_back({name, histogram->Snapshot()});
  }
  return snap;
}

void Registry::ResetForTest() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) counter->Reset();
  for (const auto& [name, gauge] : gauges_) gauge->Reset();
  for (const auto& [name, histogram] : histograms_) histogram->Reset();
}

std::string RenderMetrics(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  os << "metrics registry (" << snapshot.counters.size() << " counters, "
     << snapshot.gauges.size() << " gauges, " << snapshot.histograms.size()
     << " histograms)\n";
  if (!snapshot.counters.empty()) {
    os << "counters:\n";
    for (const MetricsSnapshot::CounterEntry& c : snapshot.counters) {
      os << "  " << c.name << " = " << c.value << "\n";
    }
  }
  if (!snapshot.gauges.empty()) {
    os << "gauges:\n";
    for (const MetricsSnapshot::GaugeEntry& g : snapshot.gauges) {
      os << "  " << g.name << " = " << g.value << " (max " << g.max << ")\n";
    }
  }
  if (!snapshot.histograms.empty()) {
    os << "histograms:\n";
    for (const MetricsSnapshot::HistogramEntry& h : snapshot.histograms) {
      os << "  " << h.name << ": count=" << h.hist.count
         << " mean=" << h.hist.Mean() << "ns p50=" << h.hist.Percentile(0.5)
         << "ns p95=" << h.hist.Percentile(0.95) << "ns\n";
    }
  }
  return os.str();
}

std::string MetricsToJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\":{";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonString(snapshot.counters[i].name, &out);
    out += ':';
    AppendJsonUint(snapshot.counters[i].value, &out);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonString(snapshot.gauges[i].name, &out);
    out += ":{\"value\":";
    AppendJsonInt(snapshot.gauges[i].value, &out);
    out += ",\"max\":";
    AppendJsonInt(snapshot.gauges[i].max, &out);
    out += '}';
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    if (i > 0) out += ',';
    const HistogramSnapshot& h = snapshot.histograms[i].hist;
    AppendJsonString(snapshot.histograms[i].name, &out);
    out += ":{\"count\":";
    AppendJsonUint(h.count, &out);
    out += ",\"sum_ns\":";
    AppendJsonUint(h.sum, &out);
    out += ",\"mean_ns\":";
    AppendJsonNumber(h.Mean(), &out);
    out += ",\"p50_ns\":";
    AppendJsonNumber(h.Percentile(0.5), &out);
    out += ",\"p95_ns\":";
    AppendJsonNumber(h.Percentile(0.95), &out);
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace wym::obs
