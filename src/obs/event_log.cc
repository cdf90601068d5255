#include "obs/event_log.h"

#include <cinttypes>
#include <cstdio>
#include <set>

#include "obs/json.h"

namespace wym::obs {

const char* RequestOutcomeName(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kOk:
      return "ok";
    case RequestOutcome::kCacheHit:
      return "cache_hit";
    case RequestOutcome::kShed:
      return "shed";
    case RequestOutcome::kDeadline:
      return "deadline";
    case RequestOutcome::kWedged:
      return "wedged";
    case RequestOutcome::kError:
      return "error";
  }
  return "error";
}

void SetRecordField(char* dst, std::size_t cap, const std::string& src) {
  if (cap == 0) return;
  std::size_t n = src.size() < cap - 1 ? src.size() : cap - 1;
  // A cut before a continuation byte (10xxxxxx) would split a code
  // point; move it back to the sequence's lead byte, at most 3 bytes.
  for (int back = 0; back < 3 && n > 0 && n < src.size() &&
                     (static_cast<unsigned char>(src[n]) & 0xC0) == 0x80;
       ++back) {
    --n;
  }
  src.copy(dst, n);
  dst[n] = '\0';
}

const char* RenderRequestId(std::uint64_t sequence, char* buf,
                            std::size_t cap) {
  std::snprintf(buf, cap, "q%08" PRIu64, sequence);
  return buf;
}

void RenderRequestRecord(const RequestRecord& record, std::string* out) {
  char id[RequestRecord::kIdBytes];
  *out += "{\"schema\":\"wym-journal/v1\",\"seq\":";
  AppendJsonUint(record.sequence, out);
  *out += ",\"id\":";
  AppendJsonString(RenderRequestId(record.sequence, id, sizeof(id)), out);
  *out += ",\"client_id\":";
  AppendJsonString(record.client_id, out);
  *out += ",\"op\":";
  AppendJsonString(record.op, out);
  *out += ",\"model\":";
  AppendJsonString(record.model, out);
  *out += ",\"outcome\":";
  AppendJsonString(RequestOutcomeName(record.outcome), out);
  *out += ",\"admit_ns\":";
  AppendJsonUint(record.admit_ns, out);
  *out += ",\"queue_ns\":";
  AppendJsonUint(record.queue_ns, out);
  *out += ",\"run_ns\":";
  AppendJsonUint(record.run_ns, out);
  *out += ",\"total_ns\":";
  AppendJsonUint(record.total_ns, out);
  *out += ",\"pairs\":";
  AppendJsonUint(record.pairs, out);
  *out += ",\"batches\":";
  AppendJsonUint(record.batches, out);
  *out += ",\"cached\":";
  AppendJsonUint(record.cached, out);
  *out += '}';
}

EventLog::EventLog(Options options) : options_(std::move(options)) {}

EventLog::~EventLog() { Close(); }

bool EventLog::Open(std::string* error) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) return true;
  file_ = std::fopen(options_.path.c_str(), "wb");
  if (file_ == nullptr) {
    if (error != nullptr) *error = "cannot open journal: " + options_.path;
    return false;
  }
  active_bytes_ = 0;
  return true;
}

void EventLog::RotateLocked() {
  // Single rotation slot: the previous <path>.1 (if any) is replaced,
  // so the journal never holds more than ~2x max_bytes on disk.
  std::fclose(file_);
  file_ = nullptr;
  const std::string rotated = options_.path + ".1";
  std::remove(rotated.c_str());
  std::rename(options_.path.c_str(), rotated.c_str());
  file_ = std::fopen(options_.path.c_str(), "wb");
  active_bytes_ = 0;
  ++rotations_;
}

void EventLog::Append(const RequestRecord& record) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  line_.clear();
  RenderRequestRecord(record, &line_);
  line_ += '\n';
  if (options_.max_bytes != 0 && active_bytes_ != 0 &&
      active_bytes_ + line_.size() > options_.max_bytes) {
    RotateLocked();
    if (file_ == nullptr) return;  // Rotation reopen failed; drop quietly.
  }
  if (std::fwrite(line_.data(), 1, line_.size(), file_) == line_.size()) {
    active_bytes_ += line_.size();
    ++lines_written_;
  }
  // Flushed per line so followers (wym_cli tail --follow, an operator's
  // tail -f) see the record as soon as the request is answered.
  std::fflush(file_);
}

void EventLog::Close() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  std::fflush(file_);
  std::fclose(file_);
  file_ = nullptr;
}

std::uint64_t EventLog::lines_written() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return lines_written_;
}

std::uint64_t EventLog::rotations() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return rotations_;
}

bool ValidateJournalRecord(const JsonValue& record, const std::string& where,
                           std::string* error) {
  if (!record.IsObject()) return RejectJson(error, where + ": not an object");
  const JsonValue* schema =
      RequireMember(record, "schema", JsonValue::Kind::kString, where, error);
  if (schema == nullptr) return false;
  if (schema->string != "wym-journal/v1") {
    return RejectJson(error, where + ": missing schema tag wym-journal/v1");
  }
  for (const char* key : {"id", "client_id", "op", "model", "outcome"}) {
    if (RequireMember(record, key, JsonValue::Kind::kString, where, error) ==
        nullptr) {
      return false;
    }
  }
  for (const char* key : {"seq", "admit_ns", "queue_ns", "run_ns", "total_ns",
                          "pairs", "batches", "cached"}) {
    const JsonValue* member =
        RequireMember(record, key, JsonValue::Kind::kNumber, where, error);
    if (member == nullptr) return false;
    if (member->number < 0) {
      return RejectJson(error, where + ": negative \"" + key + "\"");
    }
  }
  const std::string& outcome = record.Find("outcome")->string;
  for (const char* name :
       {"ok", "cache_hit", "shed", "deadline", "wedged", "error"}) {
    if (outcome == name) return true;
  }
  return RejectJson(error, where + ": unknown outcome \"" + outcome + "\"");
}

bool ValidateJournalJson(const std::string& text, std::string* error) {
  std::set<std::uint64_t> seen_seq;
  std::size_t line_number = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find('\n', start);
    const std::string line =
        text.substr(start, end == std::string::npos ? std::string::npos
                                                    : end - start);
    start = end == std::string::npos ? text.size() + 1 : end + 1;
    ++line_number;
    if (line.empty()) continue;
    const std::string where = "journal line " + std::to_string(line_number);

    JsonValue record;
    std::string parse_error;
    if (!ParseJson(line, &record, &parse_error)) {
      return RejectJson(error, where + ": " + parse_error);
    }
    if (!ValidateJournalRecord(record, where, error)) return false;
    const std::uint64_t seq =
        static_cast<std::uint64_t>(record.Find("seq")->number);
    if (!seen_seq.insert(seq).second) {
      return RejectJson(error,
                        where + ": duplicate seq " + std::to_string(seq));
    }
  }
  if (seen_seq.empty()) return RejectJson(error, "journal: no records");
  return true;
}

}  // namespace wym::obs
