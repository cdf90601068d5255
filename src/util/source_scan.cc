#include "util/source_scan.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <sstream>

#include "util/string_util.h"

namespace wym::lint {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }

}  // namespace

size_t FindWord(const std::string& hay, const std::string& needle,
                size_t from) {
  while (from <= hay.size()) {
    const size_t p = hay.find(needle, from);
    if (p == std::string::npos) return std::string::npos;
    const size_t e = p + needle.size();
    const bool left_ok = p == 0 || !IsIdentChar(hay[p - 1]);
    const bool right_ok = e >= hay.size() || !IsIdentChar(hay[e]);
    if (left_ok && right_ok) return p;
    from = p + 1;
  }
  return std::string::npos;
}

bool HasWord(const std::string& hay, const std::string& needle) {
  return FindWord(hay, needle) != std::string::npos;
}

bool HasCall(const std::string& hay, const std::string& name) {
  size_t from = 0;
  size_t p;
  while ((p = FindWord(hay, name, from)) != std::string::npos) {
    size_t e = p + name.size();
    while (e < hay.size() && IsSpace(hay[e])) ++e;
    if (e < hay.size() && hay[e] == '(') return true;
    from = p + 1;
  }
  return false;
}

std::vector<LexedLine> LexLines(const std::string& text) {
  enum : uint8_t { kCode = 0, kComment = 1, kStringBody = 2, kStringDelim = 3 };
  enum class State { kPlain, kLineComment, kBlockComment, kString, kChar };

  const size_t n = text.size();
  std::vector<uint8_t> cls(n, kCode);
  State state = State::kPlain;

  for (size_t i = 0; i < n; ++i) {
    const char c = text[i];
    switch (state) {
      case State::kPlain: {
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
          cls[i] = cls[i + 1] = kComment;
          ++i;
          state = State::kLineComment;
        } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
          cls[i] = cls[i + 1] = kComment;
          ++i;
          state = State::kBlockComment;
        } else if (c == '"') {
          // Raw string? The quote must be preceded by an encoding prefix
          // ending in R (R, LR, uR, UR, u8R).
          size_t b = i;
          while (b > 0 && IsIdentChar(text[b - 1])) --b;
          const std::string prefix = text.substr(b, i - b);
          const bool raw = prefix == "R" || prefix == "LR" || prefix == "uR" ||
                           prefix == "UR" || prefix == "u8R";
          if (raw) {
            // R"delim( ... )delim"
            size_t j = i + 1;
            std::string delim;
            while (j < n && text[j] != '(' && text[j] != '\n') {
              delim += text[j];
              ++j;
            }
            const std::string closer = ")" + delim + "\"";
            for (size_t k = i; k <= j && k < n; ++k) cls[k] = kStringDelim;
            const size_t end = text.find(closer, j + 1);
            const size_t stop = end == std::string::npos ? n : end;
            for (size_t k = j + 1; k < stop; ++k) cls[k] = kStringBody;
            if (end != std::string::npos) {
              for (size_t k = end; k < end + closer.size() && k < n; ++k) {
                cls[k] = kStringDelim;
              }
              i = end + closer.size() - 1;
            } else {
              i = n - 1;
            }
          } else {
            cls[i] = kStringDelim;
            state = State::kString;
          }
        } else if (c == '\'') {
          // A quote directly after an identifier/number character is a
          // C++14 digit separator (1'000'000), not a character literal.
          if (i > 0 && IsIdentChar(text[i - 1])) {
            cls[i] = kCode;
          } else {
            cls[i] = kStringDelim;
            state = State::kChar;
          }
        }
        break;
      }
      case State::kLineComment:
        if (c == '\n') {
          state = State::kPlain;
        } else {
          cls[i] = kComment;
        }
        break;
      case State::kBlockComment:
        cls[i] = kComment;
        if (c == '*' && i + 1 < n && text[i + 1] == '/') {
          cls[i + 1] = kComment;
          ++i;
          state = State::kPlain;
        }
        break;
      case State::kString:
        if (c == '\\' && i + 1 < n) {
          cls[i] = cls[i + 1] = kStringBody;
          ++i;
        } else if (c == '"') {
          cls[i] = kStringDelim;
          state = State::kPlain;
        } else if (c == '\n') {
          state = State::kPlain;  // Unterminated literal; resynchronize.
        } else {
          cls[i] = kStringBody;
        }
        break;
      case State::kChar:
        if (c == '\\' && i + 1 < n) {
          cls[i] = cls[i + 1] = kStringBody;
          ++i;
        } else if (c == '\'') {
          cls[i] = kStringDelim;
          state = State::kPlain;
        } else if (c == '\n') {
          state = State::kPlain;
        } else {
          cls[i] = kStringBody;
        }
        break;
    }
  }

  // Split into lines and build the per-line views.
  std::vector<LexedLine> lines;
  size_t start = 0;
  bool continued_preproc = false;
  while (start <= n) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = n;
    const size_t len = end - start;

    // Preprocessor detection: first non-space *code* character is '#',
    // or the previous line was a directive ending in a backslash.
    bool preproc = continued_preproc;
    if (!preproc) {
      for (size_t k = start; k < end; ++k) {
        if (cls[k] != kCode) continue;
        if (IsSpace(text[k])) continue;
        preproc = text[k] == '#';
        break;
      }
    }
    continued_preproc = preproc && len > 0 && text[end - 1] == '\\';

    LexedLine out;
    out.preprocessor = preproc;
    out.code.assign(len, ' ');
    out.comment.assign(len, ' ');
    for (size_t k = start; k < end; ++k) {
      const char c = text[k];
      switch (cls[k]) {
        case kCode:
        case kStringDelim:
          out.code[k - start] = c;
          break;
        case kStringBody:
          // Include paths matter to the preprocessor checks; everywhere
          // else, literal bodies are masked so quoted code can't trip a
          // pattern.
          if (preproc) out.code[k - start] = c;
          break;
        case kComment:
          out.comment[k - start] = c;
          break;
      }
    }
    lines.push_back(std::move(out));
    if (end == n) break;
    start = end + 1;
  }
  // text.find on an empty trailing segment: drop the phantom line a
  // trailing newline would otherwise produce only when it is truly empty.
  if (!lines.empty() && !text.empty() && text.back() == '\n') {
    lines.pop_back();
  }
  return lines;
}

std::string FormatFinding(const Finding& finding) {
  std::ostringstream os;
  os << finding.path << ":" << finding.line << ": [" << finding.check << "] "
     << finding.message;
  return os.str();
}

const std::vector<std::string>& AllCheckNames() {
  static const std::vector<std::string> kNames = {
      "no-rand",
      "no-raw-clock",
      "unordered-iteration",
      "no-parallel-reduce",
      "kernel-bypass-accumulation",
      "no-raw-new-delete",
      "memcpy-nontrivial",
      "header-guard",
      "no-using-namespace-header",
      "simd-outside-kernels",
      "no-cout",
      "todo-issue",
      "unchecked-status",
      "lint-suppression",
      "stale-suppression",
      // Cross-TU checks emitted by `wym_lint graph` / `wym_lint taint`
      // (src/analysis), registered here so their suppression markers
      // validate under every pass.
      "layer-order",
      "include-cycle",
      "taint-flow",
  };
  return kNames;
}

bool IsKnownCheck(const std::string& name) {
  const auto& names = AllCheckNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

bool IsTokenCheck(const std::string& name) {
  return IsKnownCheck(name) && name != "layer-order" &&
         name != "include-cycle" && name != "taint-flow";
}

namespace {

/// Everything a check needs about one file.
struct FileCtx {
  const std::string& path;
  const std::vector<LexedLine>& lines;

  bool InDir(const char* prefix) const {
    return strings::StartsWith(path, prefix);
  }
  bool IsHeader() const { return strings::EndsWith(path, ".h"); }
  std::string Basename() const {
    const size_t slash = path.rfind('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
  }
};

void Emit(const FileCtx& ctx, size_t line_index, const char* check,
          std::string message, std::vector<Finding>* out) {
  out->push_back(Finding{ctx.path, static_cast<int>(line_index + 1), check,
                         std::move(message)});
}

// --------------------------------------------------------------------------
// Determinism checks
// --------------------------------------------------------------------------

/// no-rand: unseeded randomness leaks nondeterminism into models and
/// explanations. util/ owns the sanctioned wrapper (wym::Rng) and
/// bench/ legitimately randomizes workloads. Clock reads, previously
/// folded into this check, now live in no-raw-clock below.
void CheckNoRand(const FileCtx& ctx, std::vector<Finding>* out) {
  if (ctx.InDir("src/util/") || ctx.InDir("bench/")) return;
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& code = ctx.lines[i].code;
    const char* what = nullptr;
    if (HasWord(code, "std::rand") || HasCall(code, "rand")) {
      what = "rand()";
    } else if (HasCall(code, "srand")) {
      what = "srand()";
    } else if (HasWord(code, "random_device")) {
      what = "std::random_device";
    } else if (HasCall(code, "time")) {
      what = "time()";
    }
    if (what != nullptr) {
      Emit(ctx, i, "no-rand",
           std::string(what) +
               " is nondeterministic; draw from a seeded wym::Rng "
               "(util/ and bench/ are exempt)",
           out);
    }
  }
}

/// no-raw-clock: the tree has exactly one time source —
/// util::Stopwatch, which obs::NowNanos() routes through. A direct
/// std::chrono clock call anywhere else (including bench/ and tests/)
/// fragments timing across clocks and bypasses the span/histogram
/// plumbing; only src/util/ (the wrapper's home) is exempt.
void CheckNoRawClock(const FileCtx& ctx, std::vector<Finding>* out) {
  if (ctx.InDir("src/util/")) return;
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& code = ctx.lines[i].code;
    const char* what = nullptr;
    for (const char* clock :
         {"steady_clock", "system_clock", "high_resolution_clock"}) {
      if (HasWord(code, clock)) {
        what = "a std::chrono clock type";
        break;
      }
    }
    if (what == nullptr) {
      size_t p = code.find("::now");
      while (p != std::string::npos) {
        size_t e = p + 5;
        while (e < code.size() && IsSpace(code[e])) ++e;
        if (e < code.size() && code[e] == '(') {
          what = "a clock ::now() call";
          break;
        }
        p = code.find("::now", p + 1);
      }
    }
    if (what != nullptr) {
      Emit(ctx, i, "no-raw-clock",
           std::string(what) +
               " outside src/util/; read time through util::Stopwatch "
               "or obs::NowNanos() so the tree keeps one time source",
           out);
    }
  }
}

/// unordered-iteration: iterating a hash container in a TU that writes
/// model files or reports — or, in src/blocking/, emits CandidatePair
/// lists — can leak hash-table ordering into persisted bytes or
/// candidate order, breaking the bit-identical-output guarantee. Sort
/// the keys first, or suppress with the reason the order provably
/// cannot escape.
void CheckUnorderedIteration(const FileCtx& ctx, std::vector<Finding>* out) {
  // Scope: only TUs that can persist bytes (serializers, file writers)
  // or emit candidate lists (the blocking tier promises byte-identical
  // candidate output at every thread count and SIMD level).
  const bool blocking_tu =
      strings::StartsWith(ctx.path, "src/blocking/") ||
      ctx.path.find("/src/blocking/") != std::string::npos;
  bool writes_output = false;
  for (const LexedLine& line : ctx.lines) {
    if (HasWord(line.code, "Serializer") || HasWord(line.code, "ofstream") ||
        HasCall(line.code, "Save") ||
        (blocking_tu && HasWord(line.code, "CandidatePair"))) {
      writes_output = true;
      break;
    }
  }
  if (!writes_output) return;

  // Names declared with an unordered container type in this file.
  std::vector<std::string> names;
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& code = ctx.lines[i].code;
    for (const char* container : {"unordered_map", "unordered_set"}) {
      size_t p = FindWord(code, container);
      while (p != std::string::npos) {
        // Skip the template argument list (joining a continuation line if
        // the declaration wraps), then read the declared identifier.
        std::string decl = code.substr(p);
        if (i + 1 < ctx.lines.size()) decl += " " + ctx.lines[i + 1].code;
        size_t q = decl.find('<');
        if (q != std::string::npos) {
          int depth = 0;
          for (; q < decl.size(); ++q) {
            if (decl[q] == '<') ++depth;
            if (decl[q] == '>' && --depth == 0) break;
          }
          ++q;
          while (q < decl.size() && (IsSpace(decl[q]) || decl[q] == '&')) ++q;
          std::string name;
          while (q < decl.size() && IsIdentChar(decl[q])) name += decl[q++];
          if (!name.empty()) names.push_back(name);
        }
        p = FindWord(code, container, p + 1);
      }
    }
  }

  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& code = ctx.lines[i].code;
    const size_t f = FindWord(code, "for");
    if (f == std::string::npos) continue;
    // Range expression: the text after a non-'::' colon inside the for().
    size_t colon = std::string::npos;
    for (size_t k = f; k < code.size(); ++k) {
      if (code[k] != ':') continue;
      if (k > 0 && code[k - 1] == ':') continue;
      if (k + 1 < code.size() && code[k + 1] == ':') continue;
      colon = k;
      break;
    }
    if (colon == std::string::npos) continue;
    const std::string range = code.substr(colon + 1);
    const char* hit = nullptr;
    if (HasWord(range, "unordered_map") || HasWord(range, "unordered_set")) {
      hit = "an unordered container";
    } else {
      for (const std::string& name : names) {
        if (HasWord(range, name)) {
          hit = "a container declared unordered in this file";
          break;
        }
      }
    }
    if (hit != nullptr) {
      Emit(ctx, i, "unordered-iteration",
           std::string("range-for over ") + hit +
               " in a TU that writes model files or reports; hash order "
               "must not reach persisted output — iterate sorted keys",
           out);
    }
  }
}

/// no-parallel-reduce: std::reduce and std::execution reassociate
/// floating-point sums at the library's whim; every reduction must go
/// through la::kernels' pinned partial-sum order or util::ParallelFor's
/// ordered merges.
void CheckNoParallelReduce(const FileCtx& ctx, std::vector<Finding>* out) {
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& code = ctx.lines[i].code;
    if (HasWord(code, "std::reduce") || HasWord(code, "std::execution")) {
      Emit(ctx, i, "no-parallel-reduce",
           "std::reduce/std::execution reassociate float sums; use "
           "la::kernels or util::ParallelFor with an ordered merge",
           out);
    }
  }
}

/// kernel-bypass-accumulation: a hand-rolled `acc += a[i] * b[i]` dot
/// loop in the math subsystems compiles to whatever reduction order the
/// optimizer picks and silently diverges from la::kernels' pinned
/// summation tree. Route through kernels::Dot/Axpy. src/core and
/// src/blocking compute similarities through the kernels too and are
/// covered for the same reason.
void CheckKernelBypassAccumulation(const FileCtx& ctx,
                                   std::vector<Finding>* out) {
  if (!ctx.InDir("src/la/") && !ctx.InDir("src/ml/") &&
      !ctx.InDir("src/embedding/") && !ctx.InDir("src/core/") &&
      !ctx.InDir("src/blocking/")) {
    return;
  }
  if (strings::StartsWith(ctx.Basename(), "kernels")) return;
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& code = ctx.lines[i].code;
    const size_t p = code.find("+=");
    if (p == std::string::npos) continue;
    // Accumulator must be a plain scalar identifier: an indexed or
    // call-result lvalue means element-wise accumulation, which is
    // order-independent across elements.
    size_t b = p;
    while (b > 0 && IsSpace(code[b - 1])) --b;
    if (b == 0 || !IsIdentChar(code[b - 1])) continue;
    // Right-hand side: needs a product of two subscripts with the same
    // index expression to look like a dot-product step.
    std::string rhs = code.substr(p + 2);
    const size_t semi = rhs.find(';');
    if (semi != std::string::npos) rhs = rhs.substr(0, semi);
    if (rhs.find('*') == std::string::npos) continue;
    std::vector<std::string> indices;
    for (size_t k = 0; k < rhs.size(); ++k) {
      if (rhs[k] != '[') continue;
      const size_t close = rhs.find(']', k + 1);
      if (close == std::string::npos) break;
      indices.push_back(strings::Trim(rhs.substr(k + 1, close - k - 1)));
      k = close;
    }
    bool duplicated = false;
    for (size_t a = 0; a < indices.size() && !duplicated; ++a) {
      for (size_t c = a + 1; c < indices.size(); ++c) {
        if (!indices[a].empty() && indices[a] == indices[c]) {
          duplicated = true;
          break;
        }
      }
    }
    if (duplicated) {
      Emit(ctx, i, "kernel-bypass-accumulation",
           "scalar reduction over indexed products bypasses la::kernels' "
           "pinned summation order; use kernels::Dot/Axpy",
           out);
    }
  }
}

// --------------------------------------------------------------------------
// Safety checks
// --------------------------------------------------------------------------

/// no-raw-new-delete: ownership lives in containers and values in this
/// codebase; a raw new/delete is either a leak-in-waiting or a double
/// free. Placement new (`new (ptr) T`) is the sanctioned exception.
void CheckRawNewDelete(const FileCtx& ctx, std::vector<Finding>* out) {
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& code = ctx.lines[i].code;
    // `#include <new>` names a header, not a new-expression.
    if (ctx.lines[i].preprocessor && HasWord(code, "include")) continue;
    size_t p = FindWord(code, "new");
    while (p != std::string::npos) {
      size_t e = p + 3;
      while (e < code.size() && IsSpace(code[e])) ++e;
      if (e < code.size() && code[e] != '(') {
        Emit(ctx, i, "no-raw-new-delete",
             "raw 'new'; own memory with containers or std::unique_ptr "
             "(placement new is exempt)",
             out);
        break;
      }
      p = FindWord(code, "new", p + 1);
    }
    p = FindWord(code, "delete");
    while (p != std::string::npos) {
      size_t b = p;
      while (b > 0 && IsSpace(code[b - 1])) --b;
      const bool defaulted = b > 0 && code[b - 1] == '=';
      const bool op = b >= 8 && code.compare(b - 8, 8, "operator") == 0;
      if (!defaulted && !op) {
        Emit(ctx, i, "no-raw-new-delete",
             "raw 'delete'; own memory with containers or std::unique_ptr",
             out);
        break;
      }
      p = FindWord(code, "delete", p + 1);
    }
  }
}

/// memcpy-nontrivial: memcpy over a non-trivially-copyable type is UB.
/// Lexical heuristic: the call's argument text names a known class type.
void CheckMemcpyNontrivial(const FileCtx& ctx, std::vector<Finding>* out) {
  static const char* kHints[] = {"string", "Vec",    "Matrix",
                                 "Record", "Report", "Dataset"};
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& code = ctx.lines[i].code;
    if (!HasCall(code, "memcpy")) continue;
    // Argument text: this line plus up to three continuations.
    std::string args = code;
    for (size_t k = i + 1; k < ctx.lines.size() && k < i + 4; ++k) {
      args += " " + ctx.lines[k].code;
    }
    for (const char* hint : kHints) {
      if (HasWord(args, hint)) {
        Emit(ctx, i, "memcpy-nontrivial",
             std::string("memcpy argument mentions '") + hint +
                 "', which is not trivially copyable; copy elementwise or "
                 "via assignment",
             out);
        break;
      }
    }
  }
}

/// header-guard: every header carries an include guard named after its
/// path (WYM_<PATH>_H_, with the src/ prefix dropped).
void CheckHeaderGuard(const FileCtx& ctx, std::vector<Finding>* out) {
  if (!ctx.IsHeader()) return;
  std::string rel = ctx.path;
  if (strings::StartsWith(rel, "src/")) rel = rel.substr(4);
  std::string expected = "WYM_";
  for (char c : rel) {
    expected += IsIdentChar(c) ? static_cast<char>(std::toupper(
                                     static_cast<unsigned char>(c)))
                               : '_';
  }
  expected += '_';

  // First directive must be `#ifndef <expected>`, second `#define` it.
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    if (!ctx.lines[i].preprocessor) continue;
    const std::string& code = ctx.lines[i].code;
    const size_t p = FindWord(code, "ifndef");
    if (p == std::string::npos) {
      Emit(ctx, i, "header-guard",
           "first preprocessor directive is not an include guard (#ifndef " +
               expected + ")",
           out);
      return;
    }
    size_t q = p + 6;
    while (q < code.size() && IsSpace(code[q])) ++q;
    std::string name;
    while (q < code.size() && IsIdentChar(code[q])) name += code[q++];
    if (name != expected) {
      Emit(ctx, i, "header-guard",
           "include guard '" + name + "' should be '" + expected + "'", out);
      return;
    }
    for (size_t k = i + 1; k < ctx.lines.size(); ++k) {
      if (!ctx.lines[k].preprocessor) continue;
      if (FindWord(ctx.lines[k].code, "define") == std::string::npos ||
          FindWord(ctx.lines[k].code, name) == std::string::npos) {
        Emit(ctx, k, "header-guard",
             "#ifndef " + expected + " must be followed by #define " +
                 expected,
             out);
      }
      return;
    }
    Emit(ctx, i, "header-guard", "include guard is never #define'd", out);
    return;
  }
  Emit(ctx, 0, "header-guard", "missing include guard (#ifndef " + expected +
                                   " / #define " + expected + ")",
       out);
}

/// no-using-namespace-header: a using-directive in a header leaks into
/// every includer.
void CheckUsingNamespaceHeader(const FileCtx& ctx, std::vector<Finding>* out) {
  if (!ctx.IsHeader()) return;
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& code = ctx.lines[i].code;
    const size_t p = FindWord(code, "using");
    if (p == std::string::npos) continue;
    size_t e = p + 5;
    while (e < code.size() && IsSpace(code[e])) ++e;
    if (code.compare(e, 9, "namespace") == 0) {
      Emit(ctx, i, "no-using-namespace-header",
           "'using namespace' in a header leaks into every includer", out);
    }
  }
}

// --------------------------------------------------------------------------
// Project-hygiene checks
// --------------------------------------------------------------------------

/// simd-outside-kernels: intrinsics live only in the AVX2 kernel TU so
/// the runtime dispatcher remains the single source of SIMD truth (and
/// the rest of the tree stays portable).
void CheckSimdOutsideKernels(const FileCtx& ctx, std::vector<Finding>* out) {
  if (ctx.path == "src/la/kernels_avx2.cc") return;
  static const char* kIncludes[] = {"immintrin.h", "emmintrin.h",
                                    "xmmintrin.h", "smmintrin.h",
                                    "tmmintrin.h", "avxintrin.h",
                                    "pmmintrin.h", "nmmintrin.h",
                                    "wmmintrin.h"};
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& code = ctx.lines[i].code;
    if (ctx.lines[i].preprocessor) {
      for (const char* inc : kIncludes) {
        if (code.find(inc) != std::string::npos) {
          Emit(ctx, i, "simd-outside-kernels",
               std::string("#include <") + inc +
                   "> outside src/la/kernels_avx2.cc; add a la::kernels "
                   "entry point instead",
               out);
          break;
        }
      }
      continue;
    }
    bool hit = false;
    for (const char* prefix : {"_mm_", "_mm256_", "_mm512_", "__m128",
                               "__m256", "__m512"}) {
      const size_t len = std::char_traits<char>::length(prefix);
      size_t p = code.find(prefix);
      while (p != std::string::npos) {
        if (p == 0 || !IsIdentChar(code[p - 1])) {
          hit = true;
          break;
        }
        p = code.find(prefix, p + len);
      }
      if (hit) break;
    }
    if (hit) {
      Emit(ctx, i, "simd-outside-kernels",
           "SIMD intrinsics outside src/la/kernels_avx2.cc; add a "
           "la::kernels entry point instead",
           out);
    }
  }
}

/// no-cout: library code reports through return values and util/table;
/// stray std::cout logging corrupts tool output (tools/ and bench/ own
/// their stdout).
void CheckNoCout(const FileCtx& ctx, std::vector<Finding>* out) {
  if (ctx.InDir("tools/") || ctx.InDir("bench/")) return;
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    if (HasWord(ctx.lines[i].code, "std::cout")) {
      Emit(ctx, i, "no-cout",
           "std::cout in library code; return data or use util/table "
           "(tools/ and bench/ are exempt)",
           out);
    }
  }
}

/// todo-issue: only TODO(#42)-style comments, so every deferred item
/// cites an issue and can't rot anonymously.
void CheckTodoIssue(const FileCtx& ctx, std::vector<Finding>* out) {
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& comment = ctx.lines[i].comment;
    const size_t p = FindWord(comment, "TODO");
    if (p == std::string::npos) continue;
    size_t e = p + 4;
    while (e < comment.size() && IsSpace(comment[e])) ++e;
    if (e + 1 >= comment.size() || comment[e] != '(' ||
        comment[e + 1] != '#') {
      Emit(ctx, i, "todo-issue",
           "TODO without an issue reference; write TODO(#<issue>): ...",
           out);
    }
  }
}

/// unchecked-status: a call to a `Status`/`Result`-returning function
/// used as a bare expression statement silently drops the error — the
/// exact failure mode the Status discipline exists to prevent (and the
/// runtime half of the `[[nodiscard]]` annotation on both types).
///
/// Lexical heuristic, belt and braces with the compiler warning:
/// candidate functions are (a) a registry of the library's known
/// Status/Result-returning entry points, plus (b) any function this
/// file itself declares with a `Status`/`Result<...>` return type. A
/// call is a finding when nothing but member/namespace qualifiers
/// (`obj.`, `ptr->`, `ns::`) stands between the statement start and the
/// call — assignments, `return`, macro wrappers and condition contexts
/// all leave other tokens on the line and are not flagged.
void CheckUncheckedStatus(const FileCtx& ctx, std::vector<Finding>* out) {
  // (a) Library-wide Status/Result returners callable across TUs.
  static const char* kRegistry[] = {
      "SaveToFile",     "LoadFromFile",     "VerifyFile",
      "WriteDatasetCsv", "ReadDatasetCsv",
      "DatasetFromCsv", "WriteFileAtomic",  "ReadFileToString",
      "DecodeFramedFile", "VerifyFramedFile", "Annotate",
  };
  std::vector<std::string> candidates(std::begin(kRegistry),
                                      std::end(kRegistry));

  // (b) Functions declared in this file with a Status/Result return
  // type: `Status Foo(`, `wym::Status Foo(`, `Result<T> Foo(`.
  for (const LexedLine& line : ctx.lines) {
    const std::string& code = line.code;
    for (const char* type_name : {"Status", "Result"}) {
      size_t p = FindWord(code, type_name, 0);
      while (p != std::string::npos) {
        size_t e = p + std::char_traits<char>::length(type_name);
        if (e < code.size() && code[e] == '<') {
          // Skip the Result<...> template argument list.
          int depth = 0;
          while (e < code.size()) {
            if (code[e] == '<') ++depth;
            if (code[e] == '>' && --depth == 0) {
              ++e;
              break;
            }
            ++e;
          }
        }
        while (e < code.size() && IsSpace(code[e])) ++e;
        std::string name;
        while (e < code.size() && IsIdentChar(code[e])) name += code[e++];
        while (e < code.size() && IsSpace(code[e])) ++e;
        if (!name.empty() && e < code.size() && code[e] == '(') {
          candidates.push_back(name);
        }
        p = FindWord(code, type_name, p + 1);
      }
    }
  }

  // A call is bare when stripping trailing `ident.` / `ident->` /
  // `ident::` qualifier tokens from the text before it empties the line.
  const auto is_statement_start = [](const std::string& code, size_t p) {
    size_t b = p;
    while (true) {
      while (b > 0 && IsSpace(code[b - 1])) --b;
      size_t after_sep = b;
      if (b >= 2 && code.compare(b - 2, 2, "::") == 0) {
        after_sep = b - 2;
      } else if (b >= 2 && code.compare(b - 2, 2, "->") == 0) {
        after_sep = b - 2;
      } else if (b >= 1 && code[b - 1] == '.') {
        after_sep = b - 1;
      } else {
        break;
      }
      size_t ident_end = after_sep;
      while (ident_end > 0 && IsSpace(code[ident_end - 1])) --ident_end;
      size_t ident_begin = ident_end;
      while (ident_begin > 0 && IsIdentChar(code[ident_begin - 1])) {
        --ident_begin;
      }
      if (ident_begin == ident_end) {
        // `.foo(` continuation of a multi-line expression, or a global
        // `::` qualifier at the statement start.
        b = after_sep;
        break;
      }
      b = ident_begin;
    }
    while (b > 0 && IsSpace(code[b - 1])) --b;
    return b == 0;
  };

  // A line can only begin a statement if the previous code line ended
  // one (`;`, `{`, `}`). Otherwise it is a continuation of a larger —
  // checked — expression (`const Status s =\n    WriteFileAtomic(...)`).
  const auto begins_statement = [&ctx](size_t i) {
    while (i > 0) {
      --i;
      if (ctx.lines[i].preprocessor) continue;
      const std::string& prev = ctx.lines[i].code;
      const size_t last = prev.find_last_not_of(" \t");
      if (last == std::string::npos) continue;  // Blank / comment-only.
      const char c = prev[last];
      return c == ';' || c == '{' || c == '}';
    }
    return true;
  };

  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    if (ctx.lines[i].preprocessor) continue;
    const std::string& code = ctx.lines[i].code;
    for (const std::string& name : candidates) {
      size_t p = FindWord(code, name);
      bool emitted = false;
      while (p != std::string::npos && !emitted) {
        size_t e = p + name.size();
        while (e < code.size() && IsSpace(code[e])) ++e;
        if (e < code.size() && code[e] == '(' &&
            is_statement_start(code, p) && begins_statement(i)) {
          Emit(ctx, i, "unchecked-status",
               "call to Status/Result-returning '" + name +
                   "' as a bare statement drops the error; check it, "
                   "propagate it, or WYM_RETURN_IF_ERROR it",
               out);
          emitted = true;
        }
        p = FindWord(code, name, p + 1);
      }
      if (emitted) break;
    }
  }
}

// --------------------------------------------------------------------------
// Suppressions
// --------------------------------------------------------------------------

}  // namespace

std::vector<SuppressionMarker> CollectSuppressionMarkers(
    const std::string& path, const std::vector<LexedLine>& lines,
    std::vector<Finding>* malformed) {
  const auto emit = [&](size_t i, std::string message) {
    if (malformed != nullptr) {
      malformed->push_back(Finding{path, static_cast<int>(i + 1),
                                   "lint-suppression", std::move(message)});
    }
  };
  std::vector<SuppressionMarker> result;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& comment = lines[i].comment;
    const size_t marker = comment.find("wym-lint:");
    if (marker == std::string::npos) continue;
    size_t p = marker + 9;
    while (p < comment.size() && IsSpace(comment[p])) ++p;
    if (comment.compare(p, 6, "allow(") != 0) {
      emit(i,
           "malformed wym-lint marker; write "
           "// wym-lint: allow(check-name): reason");
      continue;
    }
    p += 6;
    const size_t close = comment.find(')', p);
    if (close == std::string::npos) {
      emit(i, "unterminated allow(...)");
      continue;
    }
    const std::string check = strings::Trim(comment.substr(p, close - p));
    if (!IsKnownCheck(check)) {
      emit(i, "allow(" + check + ") names no known check; see wym_lint "
              "--list-checks");
      continue;
    }
    size_t r = close + 1;
    while (r < comment.size() && IsSpace(comment[r])) ++r;
    if (r >= comment.size() || comment[r] != ':') {
      emit(i, "allow(" + check + ") without a reason; a suppression must "
              "explain itself: allow(" + check + "): why");
      continue;
    }
    const std::string reason = strings::Trim(comment.substr(r + 1));
    if (reason.empty()) {
      emit(i, "allow(" + check + ") with an empty reason");
      continue;
    }
    result.push_back(
        SuppressionMarker{static_cast<int>(i + 1), check, reason});
  }
  return result;
}

std::vector<Finding> ScanSource(const std::string& path,
                                const std::string& text, ScanStats* stats) {
  const std::vector<LexedLine> lines = LexLines(text);
  const FileCtx ctx{path, lines};

  std::vector<Finding> raw;
  // Markers naming analysis-pass checks (layer-order, include-cycle,
  // taint-flow) are validated here but owned — used/stale accounting —
  // by `wym_lint graph` / `wym_lint taint`; the token scan must neither
  // honor nor stale-report them.
  struct Suppression {
    size_t line_index;
    std::string check;
    bool used = false;
  };
  std::vector<Suppression> suppressions;
  for (const SuppressionMarker& marker :
       CollectSuppressionMarkers(path, lines, &raw)) {
    if (!IsTokenCheck(marker.check)) continue;
    suppressions.push_back(
        Suppression{static_cast<size_t>(marker.line - 1), marker.check});
  }
  CheckNoRand(ctx, &raw);
  CheckNoRawClock(ctx, &raw);
  CheckUnorderedIteration(ctx, &raw);
  CheckNoParallelReduce(ctx, &raw);
  CheckKernelBypassAccumulation(ctx, &raw);
  CheckRawNewDelete(ctx, &raw);
  CheckMemcpyNontrivial(ctx, &raw);
  CheckHeaderGuard(ctx, &raw);
  CheckUsingNamespaceHeader(ctx, &raw);
  CheckSimdOutsideKernels(ctx, &raw);
  CheckNoCout(ctx, &raw);
  CheckTodoIssue(ctx, &raw);
  CheckUncheckedStatus(ctx, &raw);

  std::vector<Finding> findings;

  // A suppression covers its own line and the next one. Malformed-marker
  // findings go through the same filter, so documentation can exhibit
  // the literal marker syntax under an allow(lint-suppression).
  for (Finding& f : raw) {
    const size_t line_index = static_cast<size_t>(f.line) - 1;
    bool suppressed = false;
    for (Suppression& s : suppressions) {
      if (s.check == f.check &&
          (s.line_index == line_index || s.line_index + 1 == line_index)) {
        s.used = true;
        suppressed = true;
        break;
      }
    }
    if (suppressed) {
      if (stats != nullptr) ++stats->suppressions_honored;
    } else {
      findings.push_back(std::move(f));
    }
  }
  for (const Suppression& s : suppressions) {
    if (!s.used) {
      findings.push_back(
          Finding{ctx.path, static_cast<int>(s.line_index + 1),
                  "stale-suppression",
                  "allow(" + s.check + ") never matched a finding on this "
                  "or the next line; delete the stale suppression"});
    }
  }

  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return findings;
}

}  // namespace wym::lint
