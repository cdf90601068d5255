#ifndef WYM_OBS_RECORDER_H_
#define WYM_OBS_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/event_log.h"

/// \file
/// Flight recorder: a fixed-size lock-free ring of the last N answered
/// request records (see DESIGN.md "Telemetry").
///
/// The journal answers "what happened to request X" when an operator
/// has the file; the recorder answers "what was in flight just now"
/// when the process is in trouble. wym_serve dumps it to a postmortem
/// JSON artifact (`wym-flight-recorder/v1`) on watchdog fire, drain,
/// and SIGQUIT.
///
/// Record() is wait-free for writers: a ticket from one atomic
/// fetch_add picks the slot, and a per-slot begin/end sequence pair
/// (seqlock discipline) lets the rare snapshot reader detect and skip
/// records torn by a concurrent overwrite. Readers never block
/// writers. Serialization is a pure function of the captured records;
/// writing the dump to disk is the caller's job (obs sits below util,
/// whose io::WriteFileAtomic wym_serve uses).

namespace wym::obs {

class FlightRecorder {
 public:
  /// `capacity` = ring size in records; clamped to >= 1.
  explicit FlightRecorder(std::size_t capacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Copies `record` into the next ring slot. Wait-free; safe from any
  /// thread.
  void Record(const RequestRecord& record);

  /// The current ring contents, oldest first (by recording order, which
  /// is answer order — not admission order). Records mid-overwrite are
  /// skipped, so the result may briefly hold fewer than
  /// min(recorded(), capacity()) entries.
  std::vector<RequestRecord> SnapshotOrdered() const;

  /// `wym-flight-recorder/v1` postmortem JSON: fixed key order
  /// (schema, reason, capacity, recorded, records), one journal-style
  /// record object per ring entry. `reason` ("watchdog", "drain",
  /// "sigquit") is written verbatim, escaped like every other string.
  /// Callers persist it with io::WriteFileAtomic.
  std::string DumpJson(const std::string& reason) const;

  std::size_t capacity() const { return slots_.size(); }
  /// Total Record() calls since construction (may exceed capacity).
  std::uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    /// Ticket of the writer that started (begin) and finished (end)
    /// filling this slot; equal iff the record is consistent. 0 =
    /// never written.
    std::atomic<std::uint64_t> begin{0};
    std::atomic<std::uint64_t> end{0};
    RequestRecord record;
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> next_{0};
};

/// True when `text` conforms to the wym-flight-recorder/v1 schema.
bool ValidateFlightRecorderJson(const std::string& text, std::string* error);

}  // namespace wym::obs

#endif  // WYM_OBS_RECORDER_H_
