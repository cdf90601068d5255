#ifndef WYM_TOOLS_FLAGS_H_
#define WYM_TOOLS_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>

#include "util/status.h"

/// \file
/// The command-line surface shared by wym_cli and wym_serve: the
/// exit-code contract and one `--key value` / `--flag` parser whose
/// numeric accessors reject malformed values instead of reading them
/// as 0 or wrapping them around.

namespace wym::tools {

/// Exit codes for scripted callers: distinct classes of failure map to
/// distinct codes so a wrapper can tell "bad flags" from "disk died"
/// from "model file is damaged".
enum ExitCode {
  kExitOk = 0,
  kExitUsage = 1,
  kExitIo = 2,
  kExitCorruption = 3,
  kExitRegression = 4,
};

/// Maps a non-OK Status onto the exit-code contract, message on stderr.
inline int StatusExit(const Status& status) {
  if (status.ok()) return kExitOk;
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  switch (status.code()) {
    case Status::Code::kCorruption:
      return kExitCorruption;
    case Status::Code::kIoError:
    // Operational (not caller-error) failures from a wym_serve query:
    // the request was valid but the service could not complete it now.
    case Status::Code::kResourceExhausted:
    case Status::Code::kDeadlineExceeded:
      return kExitIo;
    default:
      return kExitUsage;
  }
}

/// Parses all of `text` as a decimal integer in [0, max]; no sign, no
/// whitespace.
inline bool ParseUint(const std::string& text, uint64_t max, uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && *out <= max;
}

/// Parses all of `text` as a finite decimal number.
inline bool ParseDouble(const std::string& text, double* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && std::isfinite(*out);
}

/// `--key value` / `--flag` arguments from argv[first] on. A bare word
/// exits kExitUsage; so does a malformed value read through GetUint or
/// GetDouble, with a message naming the flag.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
        std::exit(kExitUsage);
      }
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // Boolean flag.
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  uint64_t GetUint(const std::string& key, uint64_t fallback,
                   uint64_t max = std::numeric_limits<uint64_t>::max()) const {
    uint64_t value = fallback;
    if (Has(key) && !ParseUint(Get(key), max, &value)) {
      Reject(key, "an unsigned integer no larger than " + std::to_string(max));
    }
    return value;
  }

  double GetDouble(const std::string& key, double fallback) const {
    double value = fallback;
    if (Has(key) && !ParseDouble(Get(key), &value)) {
      Reject(key, "a finite number");
    }
    return value;
  }

 private:
  [[noreturn]] void Reject(const std::string& key,
                           const std::string& expected) const {
    std::fprintf(stderr, "--%s expects %s, got '%s'\n", key.c_str(),
                 expected.c_str(), Get(key).c_str());
    std::exit(kExitUsage);
  }

  std::map<std::string, std::string> values_;
};

}  // namespace wym::tools

#endif  // WYM_TOOLS_FLAGS_H_
