#include "obs/report.h"

#include "obs/json.h"

namespace wym::obs {

bool ValidateTraceJson(const std::string& text, std::string* error) {
  JsonValue root;
  if (!ParseJson(text, &root, error)) return false;
  if (!root.IsObject()) {
    return RejectJson(error, "trace: top level is not an object");
  }
  const JsonValue* events = RequireMember(root, "traceEvents",
                                          JsonValue::Kind::kArray, "trace",
                                          error);
  if (events == nullptr) return false;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& event = events->array[i];
    const std::string w = "traceEvents[" + std::to_string(i) + "]";
    if (!event.IsObject()) return RejectJson(error, w + ": not an object");
    for (const char* key : {"name", "cat", "ph"}) {
      if (RequireMember(event, key, JsonValue::Kind::kString, w, error) ==
          nullptr) {
        return false;
      }
    }
    for (const char* key : {"pid", "tid", "ts"}) {
      if (RequireMember(event, key, JsonValue::Kind::kNumber, w, error) ==
          nullptr) {
        return false;
      }
    }
    const JsonValue* ph = event.Find("ph");
    if (ph->string == "X") {
      const JsonValue* dur =
          RequireMember(event, "dur", JsonValue::Kind::kNumber, w, error);
      if (dur == nullptr) return false;
      if (dur->number < 0) return RejectJson(error, w + ": negative duration");
    }
  }
  return true;
}

bool ValidateBenchReportJson(const std::string& text, std::string* error) {
  JsonValue root;
  if (!ParseJson(text, &root, error)) return false;
  if (!root.IsObject()) {
    return RejectJson(error, "bench report: top level is not an object");
  }
  const JsonValue* schema = RequireMember(root, "schema",
                                          JsonValue::Kind::kString,
                                          "bench report", error);
  if (schema == nullptr) return false;
  if (schema->string != "wym-bench-report/v1") {
    return RejectJson(error, "bench report: unknown schema \"" +
                                 schema->string +
                                 "\" (expected wym-bench-report/v1)");
  }
  if (RequireMember(root, "bench", JsonValue::Kind::kString, "bench report",
                    error) == nullptr) {
    return false;
  }
  const JsonValue* benchmarks = RequireMember(root, "benchmarks",
                                              JsonValue::Kind::kArray,
                                              "bench report", error);
  if (benchmarks == nullptr) return false;
  for (std::size_t i = 0; i < benchmarks->array.size(); ++i) {
    const JsonValue& b = benchmarks->array[i];
    const std::string w = "benchmarks[" + std::to_string(i) + "]";
    if (!b.IsObject()) return RejectJson(error, w + ": not an object");
    if (RequireMember(b, "name", JsonValue::Kind::kString, w, error) ==
            nullptr ||
        RequireMember(b, "time_ns", JsonValue::Kind::kNumber, w, error) ==
            nullptr) {
      return false;
    }
  }
  const JsonValue* metrics = RequireMember(root, "metrics",
                                           JsonValue::Kind::kObject,
                                           "bench report", error);
  if (metrics == nullptr) return false;
  for (const char* section : {"counters", "gauges", "histograms"}) {
    if (RequireMember(*metrics, section, JsonValue::Kind::kObject, "metrics",
                      error) == nullptr) {
      return false;
    }
  }
  // Optional sections, type-checked when present.
  for (const char* section : {"stages", "rates"}) {
    const JsonValue* opt = root.Find(section);
    if (opt != nullptr && !opt->IsArray()) {
      return RejectJson(error, std::string("bench report: \"") + section +
                                   "\" must be an array");
    }
  }
  return true;
}

bool ValidateTelemetryJson(const std::string& text, std::string* error) {
  JsonValue root;
  if (!ParseJson(text, &root, error)) return false;
  if (!root.IsObject()) {
    return RejectJson(error, "telemetry: top level is not an object");
  }
  const JsonValue* schema = RequireMember(root, "schema",
                                          JsonValue::Kind::kString,
                                          "telemetry", error);
  if (schema == nullptr) return false;
  if (schema->string != "wym-telemetry/v1") {
    return RejectJson(error, "telemetry: unknown schema \"" +
                                 schema->string +
                                 "\" (expected wym-telemetry/v1)");
  }
  for (const char* key : {"now_ns", "samples"}) {
    const JsonValue* member = RequireMember(root, key,
                                            JsonValue::Kind::kNumber,
                                            "telemetry", error);
    if (member == nullptr) return false;
    if (member->number < 0) {
      return RejectJson(error,
                        std::string("telemetry: negative \"") + key + "\"");
    }
  }
  const JsonValue* windows = RequireMember(root, "windows",
                                           JsonValue::Kind::kObject,
                                           "telemetry", error);
  if (windows == nullptr) return false;
  if (windows->object.empty()) {
    return RejectJson(error, "telemetry: \"windows\" has no entries");
  }
  for (const auto& [label, window] : windows->object) {
    const std::string w = "windows[\"" + label + "\"]";
    if (!window.IsObject()) return RejectJson(error, w + ": not an object");
    for (const char* key :
         {"window_ns", "requests", "qps", "shed", "shed_rate", "cache_hits",
          "cache_misses", "cache_hit_rate", "p50_ns", "p95_ns", "p99_ns"}) {
      const JsonValue* member =
          RequireMember(window, key, JsonValue::Kind::kNumber, w, error);
      if (member == nullptr) return false;
      if (member->number < 0) {
        return RejectJson(error, w + ": negative \"" + key + "\"");
      }
    }
  }
  return true;
}

}  // namespace wym::obs
