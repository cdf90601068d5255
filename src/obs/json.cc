#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace wym::obs {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

/// Recursive-descent parser over the raw text. Tracks position for
/// error messages; depth-limited so adversarial nesting cannot blow
/// the stack.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    SkipWhitespace();
    if (!ParseValue(out, 0)) {
      Fail(error);
      return false;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      error_ = "trailing content after top-level value";
      Fail(error);
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void Fail(std::string* error) const {
    if (error == nullptr) return;
    int line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    *error = "JSON parse error at line " + std::to_string(line) + ": " +
             error_;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word, std::size_t len) {
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      error_ = "nesting too deep";
      return false;
    }
    if (pos_ >= text_.size()) {
      error_ = "unexpected end of input";
      return false;
    }
    out->begin = pos_;
    const bool ok = ParseScalarOrContainer(out, depth);
    out->end = pos_;
    return ok;
  }

  bool ParseScalarOrContainer(JsonValue* out, int depth) {
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        if (Literal("true", 4)) return true;
        error_ = "invalid literal";
        return false;
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        if (Literal("false", 5)) return true;
        error_ = "invalid literal";
        return false;
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        if (Literal("null", 4)) return true;
        error_ = "invalid literal";
        return false;
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        error_ = "expected quoted object key";
        return false;
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        error_ = "expected ':' after object key";
        return false;
      }
      ++pos_;
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      error_ = "expected ',' or '}' in object";
      return false;
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->array.push_back(std::move(value));
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      error_ = "expected ',' or ']' in array";
      return false;
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_];
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            *out += esc;
            break;
          case 'b':
            *out += '\b';
            break;
          case 'f':
            *out += '\f';
            break;
          case 'n':
            *out += '\n';
            break;
          case 'r':
            *out += '\r';
            break;
          case 't':
            *out += '\t';
            break;
          case 'u': {
            // Decode \uXXXX to UTF-8 (surrogate pairs are passed
            // through as two separate code points; the validators only
            // care about well-formedness, not text fidelity).
            if (pos_ + 4 >= text_.size()) {
              error_ = "truncated \\u escape";
              return false;
            }
            unsigned int cp = 0;
            for (int k = 1; k <= 4; ++k) {
              const char h = text_[pos_ + k];
              cp <<= 4;
              if (h >= '0' && h <= '9') {
                cp |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                cp |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                cp |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                error_ = "invalid \\u escape";
                return false;
              }
            }
            pos_ += 4;
            if (cp < 0x80) {
              *out += static_cast<char>(cp);
            } else if (cp < 0x800) {
              *out += static_cast<char>(0xC0 | (cp >> 6));
              *out += static_cast<char>(0x80 | (cp & 0x3F));
            } else {
              *out += static_cast<char>(0xE0 | (cp >> 12));
              *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (cp & 0x3F));
            }
            break;
          }
          default:
            error_ = "invalid escape character";
            return false;
        }
        ++pos_;
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        error_ = "unescaped control character in string";
        return false;
      }
      *out += c;
      ++pos_;
    }
    error_ = "unterminated string";
    return false;
  }

  bool ParseNumber(JsonValue* out) {
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) {
      error_ = "expected a JSON value";
      return false;
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    pos_ += static_cast<std::size_t>(end - begin);
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_ = "invalid JSON";
};

}  // namespace

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  Parser parser(text);
  return parser.Parse(out, error);
}

const JsonValue* RequireMember(const JsonValue& value, const char* key,
                               JsonValue::Kind kind, const std::string& where,
                               std::string* error) {
  const JsonValue* member = value.Find(key);
  if (member == nullptr) {
    RejectJson(error, where + ": missing required member \"" + key + "\"");
    return nullptr;
  }
  if (member->kind != kind) {
    RejectJson(error, where + ": member \"" + key + "\" has the wrong type");
    return nullptr;
  }
  return member;
}

bool RejectJson(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

void AppendJsonString(std::string_view text, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  *out += '"';
  std::size_t run = 0;  // Start of the pending run of verbatim bytes.
  for (std::size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(text.data() + run, text.size() - run);
  *out += '"';
}

void AppendJsonUint(std::uint64_t value, std::string* out) {
  char buffer[20];  // UINT64_MAX has 20 digits.
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, result.ptr);
}

void AppendJsonInt(std::int64_t value, std::string* out) {
  char buffer[20];  // INT64_MIN has a sign and 19 digits.
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, result.ptr);
}

void AppendJsonNumber(double value, std::string* out) {
  if (!std::isfinite(value)) {
    *out += '0';
    return;
  }
  char buffer[32];
  int length = 0;
  for (int precision = 9; precision <= 17; ++precision) {
    length = std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  out->append(buffer, static_cast<std::size_t>(length));
}

void AppendJsonFixed(double value, int digits, std::string* out) {
  if (!std::isfinite(value)) {
    *out += '0';
    return;
  }
  char buffer[64];
  const int length =
      std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  if (length < static_cast<int>(sizeof(buffer))) {
    out->append(buffer, static_cast<std::size_t>(length));
    return;
  }
  // Magnitudes past ~1e50 need more room than the stack buffer.
  const std::size_t at = out->size();
  out->resize(at + static_cast<std::size_t>(length) + 1);
  std::snprintf(out->data() + at, static_cast<std::size_t>(length) + 1,
                "%.*f", digits, value);
  out->resize(at + static_cast<std::size_t>(length));
}

}  // namespace wym::obs
