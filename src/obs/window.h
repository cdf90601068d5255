#ifndef WYM_OBS_WINDOW_H_
#define WYM_OBS_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

/// \file
/// Sliding-window view over the metrics registry (see DESIGN.md
/// "Telemetry").
///
/// The registry's counters and histograms are since-boot aggregates;
/// an operator asking "what is p99 *right now*" needs deltas. A
/// WindowTracker samples a fixed set of serving metrics on every
/// Tick(now_ns) into a bounded ring and computes window stats as the
/// difference between the newest sample and the latest sample at
/// least `window_ns` older — rates from counter deltas, percentiles
/// from bucket-wise histogram deltas (HistogramSnapshot::DeltaSince).
///
/// Contracts, shared with the rest of obs:
///  * Read-only over the registry; nothing feeds back into serving.
///  * The clock is injected (Tick takes now_ns), so tests drive it
///    deterministically and serialization is a pure function of the
///    collected samples.
///  * `wym-telemetry/v1` output has a fixed key order.

namespace wym::obs {

/// One window's worth of serving stats (all deltas, not since-boot).
struct WindowStats {
  /// Actual span covered: newest sample minus baseline sample. May be
  /// shorter than requested early in life, 0 with fewer than 2 samples.
  std::uint64_t window_ns = 0;
  std::uint64_t requests = 0;
  double qps = 0.0;
  std::uint64_t shed = 0;
  /// shed / requests over the window (0 when no requests).
  double shed_rate = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// hits / (hits + misses) over the window (0 when no lookups).
  double cache_hit_rate = 0.0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;
};

/// Appends the fixed-key-order JSON object for one window to `out`:
/// {"window_ns":..,"requests":..,"qps":..,"shed":..,"shed_rate":..,
///  "cache_hits":..,"cache_misses":..,"cache_hit_rate":..,
///  "p50_ns":..,"p95_ns":..,"p99_ns":..}. Pure function of `stats`.
void RenderWindowStats(const WindowStats& stats, std::string* out);

class WindowTracker {
 public:
  struct Options {
    /// Registry metric names sampled each Tick. The defaults are the
    /// serving tier's names (schema-level knowledge, like the report
    /// validators); tests may point at scratch metrics.
    std::string requests_metric = "serve.requests";
    std::string shed_metric = "serve.shed";
    std::string cache_hits_metric = "serve.cache_hits";
    std::string cache_misses_metric = "serve.cache_misses";
    std::string latency_metric = "serve.request_ns";
    /// Ring capacity in samples. At wym_serve's default 1s telemetry
    /// period, 128 samples comfortably cover the 60s window.
    std::size_t capacity = 128;
    /// Windows reported by TelemetryJson()/WindowsJson(), labelled
    /// "<seconds>s".
    std::vector<std::uint64_t> window_ns = {10ull * 1000 * 1000 * 1000,
                                            60ull * 1000 * 1000 * 1000};
  };

  WindowTracker();
  explicit WindowTracker(Options options);

  WindowTracker(const WindowTracker&) = delete;
  WindowTracker& operator=(const WindowTracker&) = delete;

  /// Samples the global registry at `now_ns` (the caller's injected
  /// clock) into the ring, evicting the oldest sample when full.
  void Tick(std::uint64_t now_ns);

  /// Stats over (roughly) the last `window_ns`: newest sample vs the
  /// latest sample at least that much older (or the oldest sample held
  /// if the ring does not reach back that far). All-zero with fewer
  /// than 2 samples.
  WindowStats Delta(std::uint64_t window_ns) const;

  /// {"10s":{...},"60s":{...}} for the configured windows — the
  /// "windows" member of wym-telemetry/v1, also embedded by the serve
  /// stats op.
  std::string WindowsJson() const;

  /// Full fixed-key-order telemetry artifact:
  /// {"schema":"wym-telemetry/v1","now_ns":..,"samples":..,
  ///  "windows":{...}}. now_ns is the newest sample's stamp (0 when no
  ///  samples) — no clock is read here.
  std::string TelemetryJson() const;

  std::size_t samples() const;

 private:
  struct Sample {
    std::uint64_t now_ns = 0;
    std::uint64_t requests = 0;
    std::uint64_t shed = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    HistogramSnapshot latency;
  };

  WindowStats DeltaLocked(std::uint64_t window_ns) const;
  /// Appends the WindowsJson() object; the caller holds mu_.
  void AppendWindowsLocked(std::string* out) const;
  const Sample& AtLocked(std::size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }

  const Options options_;
  mutable std::mutex mu_;
  std::vector<Sample> ring_;
  std::size_t head_ = 0;  // Index of the oldest sample.
  std::size_t size_ = 0;
};

}  // namespace wym::obs

#endif  // WYM_OBS_WINDOW_H_
