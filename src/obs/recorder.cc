#include "obs/recorder.h"

#include <algorithm>

#include "obs/json.h"

namespace wym::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::Record(const RequestRecord& record) {
  // 1-based ticket so 0 can mean "never written".
  const std::uint64_t ticket =
      next_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& slot = slots_[(ticket - 1) % slots_.size()];
  // Seqlock writer: mark the slot in-progress, fill it, then publish.
  // A snapshot that overlaps this sees begin != end and skips the slot.
  slot.begin.store(ticket, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.record = record;
  slot.end.store(ticket, std::memory_order_release);
}

std::vector<RequestRecord> FlightRecorder::SnapshotOrdered() const {
  struct Captured {
    std::uint64_t ticket;
    RequestRecord record;
  };
  std::vector<Captured> captured;
  captured.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    const std::uint64_t end = slot.end.load(std::memory_order_acquire);
    if (end == 0) continue;  // Never written.
    Captured c;
    c.ticket = end;
    c.record = slot.record;
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.begin.load(std::memory_order_relaxed) != end) {
      continue;  // Torn by a concurrent overwrite; skip.
    }
    captured.push_back(c);
  }
  std::sort(captured.begin(), captured.end(),
            [](const Captured& a, const Captured& b) {
              return a.ticket < b.ticket;
            });
  std::vector<RequestRecord> out;
  out.reserve(captured.size());
  for (const Captured& c : captured) out.push_back(c.record);
  return out;
}

std::string FlightRecorder::DumpJson(const std::string& reason) const {
  const std::vector<RequestRecord> records = SnapshotOrdered();
  std::string out = "{\"schema\":\"wym-flight-recorder/v1\",\"reason\":";
  AppendJsonString(reason, &out);
  out += ",\"capacity\":";
  AppendJsonUint(slots_.size(), &out);
  out += ",\"recorded\":";
  AppendJsonUint(recorded(), &out);
  out += ",\"records\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i != 0) out += ',';
    out += "\n  ";
    RenderRequestRecord(records[i], &out);
  }
  out += records.empty() ? "]}\n" : "\n]}\n";
  return out;
}

bool ValidateFlightRecorderJson(const std::string& text, std::string* error) {
  const std::string where = "flight recorder";
  JsonValue root;
  if (!ParseJson(text, &root, error)) return false;
  if (!root.IsObject()) {
    return RejectJson(error, where + ": top level is not an object");
  }
  const JsonValue* schema =
      RequireMember(root, "schema", JsonValue::Kind::kString, where, error);
  if (schema == nullptr) return false;
  if (schema->string != "wym-flight-recorder/v1") {
    return RejectJson(error,
                      where + ": missing schema tag wym-flight-recorder/v1");
  }
  if (RequireMember(root, "reason", JsonValue::Kind::kString, where, error) ==
      nullptr) {
    return false;
  }
  for (const char* key : {"capacity", "recorded"}) {
    const JsonValue* member =
        RequireMember(root, key, JsonValue::Kind::kNumber, where, error);
    if (member == nullptr) return false;
    if (member->number < 0) {
      return RejectJson(error, where + ": negative \"" + key + "\"");
    }
  }
  const JsonValue* records =
      RequireMember(root, "records", JsonValue::Kind::kArray, where, error);
  if (records == nullptr) return false;
  for (std::size_t i = 0; i < records->array.size(); ++i) {
    const std::string record_where = "records[" + std::to_string(i) + "]";
    if (!ValidateJournalRecord(records->array[i], record_where, error)) {
      return false;
    }
  }
  return true;
}

}  // namespace wym::obs
