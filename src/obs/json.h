#ifndef WYM_OBS_JSON_H_
#define WYM_OBS_JSON_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file
/// The project's JSON text module. Every JSON document the project
/// writes spells its strings and numbers through the three Append*
/// functions below; renderers write their keys as literals, so each
/// schema's fixed key order stays visible at the call site.
///
/// The parser is minimal and from scratch, enough to validate the
/// observability layer's own outputs (trace_event files, bench
/// reports) and to read wire requests without external dependencies.
/// Strict on structure (balanced containers, quoted keys, no trailing
/// commas), permissive on numbers (parsed via strtod). Objects
/// preserve key order and allow duplicate keys (Find returns the
/// first), which is all the validators need.

namespace wym::obs {

/// One parsed JSON value; a tagged tree.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;
  /// Byte range [begin, end) of this value in the parsed text, so a
  /// caller can copy a subtree verbatim instead of re-rendering it.
  std::size_t begin = 0;
  std::size_t end = 0;

  bool IsNull() const { return kind == Kind::kNull; }
  bool IsBool() const { return kind == Kind::kBool; }
  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsString() const { return kind == Kind::kString; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsObject() const { return kind == Kind::kObject; }

  /// First member with `key`, or nullptr. Object-kind only.
  const JsonValue* Find(const std::string& key) const;
};

/// Parses `text` into `*out`. On failure returns false and describes
/// the problem (with a line number) in `*error` when non-null.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

/// Appends `text` as a quoted JSON string (RFC 8259): `"` and `\`
/// are backslash-escaped, \n \r \t use their short escapes, every
/// other byte below 0x20 becomes \u00XX, and all remaining bytes
/// (DEL, UTF-8 sequences) pass through unchanged.
void AppendJsonString(std::string_view text, std::string* out);

/// Appends the shortest %.9g..%.17g spelling of `value` that strtod
/// reads back as exactly `value`. JSON has no spelling for NaN or an
/// infinity; a non-finite value is written as 0.
void AppendJsonNumber(double value, std::string* out);

/// Appends `value` with exactly `digits` digits after the decimal
/// point (%.*f). A non-finite value is written as 0.
void AppendJsonFixed(double value, int digits, std::string* out);

}  // namespace wym::obs

#endif  // WYM_OBS_JSON_H_
