#ifndef WYM_OBS_EVENT_LOG_H_
#define WYM_OBS_EVENT_LOG_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

/// \file
/// Per-request structured event sink: the serving tier's request
/// journal (see DESIGN.md "Telemetry").
///
/// One RequestRecord is filled per answered request — admission stamp,
/// queue/run/total durations, outcome taxonomy, pair/batch/cache
/// counts — and appended as one JSONL line tagged
/// `"schema":"wym-journal/v1"`. Contracts, matching the rest of the
/// observability layer:
///
///  * No feedback: nothing here is read back by any computation.
///  * No allocation on the steady-state append path: RequestRecord is
///    a flat POD (fixed-size char fields, truncated at a UTF-8 code
///    point boundary at copy time), and the line is rendered with the
///    obs/json Append* functions into the journal's reused line buffer
///    and written with one fwrite, both under the journal's mutex.
///    Fields are escaped once, at render time, by AppendJsonString, so
///    the journal names exactly the client id the wire response
///    echoes (up to the field's byte cap).
///  * Deterministic serialization: RenderRequestRecord is a pure
///    function of the record with a fixed key order, so two runs with
///    the same injected clock produce byte-identical journals at any
///    WYM_THREADS (it is a taint sink under `wym_lint taint`).
///  * Size-rotated: when the active file would exceed `max_bytes` the
///    journal renames it to `<path>.1` (replacing any previous `.1`)
///    and starts fresh, bounding disk use at ~2x max_bytes.
///
/// Like the report validators, this sits below util, so errors are
/// bool + message strings rather than Status.

namespace wym::obs {

/// How one request ended. Every answered request has exactly one.
enum class RequestOutcome : std::uint8_t {
  kOk = 0,        ///< Executed and answered successfully.
  kCacheHit,      ///< Ok, and every pair came from the prediction cache.
  kShed,          ///< Refused at admission (queue full or draining).
  kDeadline,      ///< Deadline budget expired (in queue or mid-batch).
  kWedged,        ///< Answered by the watchdog; the worker was stuck.
  kError,         ///< Any other typed error (NotFound, Corruption, ...).
};

/// Wire name ("ok", "cache_hit", "shed", "deadline", "wedged", "error").
const char* RequestOutcomeName(RequestOutcome outcome);

/// One journal entry. Flat and trivially copyable on purpose: the
/// flight recorder copies whole records into ring slots, and the
/// journal renders them into its reused line buffer.
struct RequestRecord {
  static constexpr std::size_t kIdBytes = 24;
  static constexpr std::size_t kOpBytes = 16;
  static constexpr std::size_t kModelBytes = 48;

  /// Admission sequence number (mints the request id "q<seq>").
  std::uint64_t sequence = 0;
  /// Client-chosen correlation id, truncated (SetRecordField).
  char client_id[kIdBytes] = {};
  /// Wire op name ("predict", "ping", ...).
  char op[kOpBytes] = {};
  /// "name#generation" of the model that served it; empty for ops that
  /// touch no model.
  char model[kModelBytes] = {};
  /// Admission timestamp (service clock — injectable in tests).
  std::uint64_t admit_ns = 0;
  /// Admission -> dequeue (0 for inline/shed answers).
  std::uint64_t queue_ns = 0;
  /// Dequeue -> answer (0 for inline/shed answers).
  std::uint64_t run_ns = 0;
  /// Admission -> answer.
  std::uint64_t total_ns = 0;
  /// Candidate pairs carried by the request.
  std::uint32_t pairs = 0;
  /// Batch slices executed before the answer.
  std::uint32_t batches = 0;
  /// Pairs served from the prediction cache.
  std::uint32_t cached = 0;
  RequestOutcome outcome = RequestOutcome::kOk;
};

/// Truncating copy into a fixed record field: at most `cap - 1` bytes
/// of `src`, cut back to a UTF-8 code point boundary, then a NUL. The
/// bytes are stored as they are; RenderRequestRecord escapes them.
void SetRecordField(char* dst, std::size_t cap, const std::string& src);

/// Appends the record to `out` as one `wym-journal/v1` JSONL line (no
/// trailing newline). Fixed key order: schema, seq, id, client_id, op,
/// model, outcome, admit_ns, queue_ns, run_ns, total_ns, pairs,
/// batches, cached. Pure function of the record — the journal's
/// determinism sink.
void RenderRequestRecord(const RequestRecord& record, std::string* out);

/// The minted request id for a sequence number ("q00000042"); writes
/// into `buf` (needs >= RequestRecord::kIdBytes) and returns it.
const char* RenderRequestId(std::uint64_t sequence, char* buf,
                            std::size_t cap);

/// Append-only JSONL journal with single-slot size rotation.
class EventLog {
 public:
  struct Options {
    std::string path;
    /// Rotation bound on the active file; a record that would push the
    /// file past this triggers rotation first. 0 = never rotate.
    std::uint64_t max_bytes = 64ull << 20;
  };

  explicit EventLog(Options options);
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Opens (creating or truncating) the active file. False + message on
  /// failure. Append before Open (or after a failed Open) is a no-op.
  bool Open(std::string* error);

  /// Renders and writes one line, rotating first if the line would
  /// cross the size bound. Thread-safe; flushes per line so `tail -f`
  /// (and wym_cli tail --follow) see records promptly.
  void Append(const RequestRecord& record);

  /// Flushes and closes the active file. Idempotent.
  void Close();

  const std::string& path() const { return options_.path; }
  /// Lines written since Open (across rotations).
  std::uint64_t lines_written() const;
  /// Completed rotations since Open.
  std::uint64_t rotations() const;

 private:
  void RotateLocked();

  const Options options_;
  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  /// Render buffer for Append, reused under mu_ so a steady-state
  /// append does not allocate.
  std::string line_;
  std::uint64_t active_bytes_ = 0;
  std::uint64_t lines_written_ = 0;
  std::uint64_t rotations_ = 0;
};

struct JsonValue;

/// True when `record` is one parsed `wym-journal/v1` object with the
/// full fixed field set and a known outcome name. `where` prefixes
/// error messages. Shared by the journal and flight-recorder
/// validators.
bool ValidateJournalRecord(const JsonValue& record, const std::string& where,
                           std::string* error);

/// True when `text` is a valid journal file: one `wym-journal/v1`
/// object per non-empty line, each with the full fixed field set, a
/// known outcome name, and a unique `seq`. (Lines are appended in
/// answer order, which interleaves inline ops with queued work, so
/// `seq` is unique but deliberately not required to be monotonic.)
bool ValidateJournalJson(const std::string& text, std::string* error);

}  // namespace wym::obs

#endif  // WYM_OBS_EVENT_LOG_H_
