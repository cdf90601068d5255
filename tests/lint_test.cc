// Unit tests for the wym-lint scanner (util/source_scan): the C++
// lexer's region classification and each check firing / staying quiet /
// being suppressed on synthetic snippets. Every snippet lives in a
// string literal, which is itself the first regression test: the lexer
// masks literal bodies, so this file scans clean under the real linter.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/source_scan.h"

namespace wym::lint {
namespace {

std::vector<Finding> Scan(const std::string& path, const std::string& text,
                          ScanStats* stats = nullptr) {
  return ScanSource(path, text, stats);
}

bool HasCheck(const std::vector<Finding>& findings, const std::string& name) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.check == name; });
}

int LineOf(const std::vector<Finding>& findings, const std::string& name) {
  for (const Finding& f : findings) {
    if (f.check == name) return f.line;
  }
  return -1;
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

TEST(LexLinesTest, MasksLineCommentsOutOfCode) {
  const auto lines = LexLines("int a;  // std::rand() here\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].code.find("rand"), std::string::npos);
  EXPECT_NE(lines[0].code.find("int a;"), std::string::npos);
  EXPECT_NE(lines[0].comment.find("std::rand() here"), std::string::npos);
}

TEST(LexLinesTest, MasksBlockCommentsAcrossLines) {
  const auto lines = LexLines("int a; /* std::rand()\n rand() */ int b;\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].code.find("rand"), std::string::npos);
  EXPECT_EQ(lines[1].code.find("rand"), std::string::npos);
  EXPECT_NE(lines[1].code.find("int b;"), std::string::npos);
  EXPECT_NE(lines[0].comment.find("std::rand()"), std::string::npos);
}

TEST(LexLinesTest, MasksStringBodiesButKeepsDelimiters) {
  const auto lines = LexLines("auto s = \"std::rand()\"; int c;\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].code.find("rand"), std::string::npos);
  EXPECT_NE(lines[0].code.find('"'), std::string::npos);
  EXPECT_NE(lines[0].code.find("int c;"), std::string::npos);
}

TEST(LexLinesTest, HandlesEscapedQuotesInsideStrings) {
  const auto lines = LexLines("auto s = \"a\\\"rand()\\\"b\"; int d;\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].code.find("rand"), std::string::npos);
  EXPECT_NE(lines[0].code.find("int d;"), std::string::npos);
}

TEST(LexLinesTest, MasksRawStringsIncludingCustomDelimiters) {
  const auto lines =
      LexLines("auto s = R\"xy(std::rand() \" )\" )xy\"; int e;\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].code.find("rand"), std::string::npos);
  EXPECT_NE(lines[0].code.find("int e;"), std::string::npos);
}

TEST(LexLinesTest, MultiLineRawStringMasksEveryLine) {
  const auto lines = LexLines("auto s = R\"(\nstd::rand();\n)\"; int f;\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1].code.find("rand"), std::string::npos);
  EXPECT_NE(lines[2].code.find("int f;"), std::string::npos);
}

TEST(LexLinesTest, DigitSeparatorIsNotACharLiteral) {
  const auto lines = LexLines("int n = 1'000'000; int m = g(2);\n");
  ASSERT_EQ(lines.size(), 1u);
  // If the separator opened a char literal, g(2) would be masked.
  EXPECT_NE(lines[0].code.find("g(2)"), std::string::npos);
}

TEST(LexLinesTest, CharLiteralBodyIsMasked) {
  const auto lines = LexLines("char c = ';'; int g;\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].code.find("int g;"), std::string::npos);
  // The ';' inside the literal is masked; the two real semicolons stay.
  EXPECT_EQ(std::count(lines[0].code.begin(), lines[0].code.end(), ';'), 2);
}

TEST(LexLinesTest, PreprocessorLinesKeepIncludePaths) {
  const auto lines = LexLines("#include \"la/kernels.h\"\nint x;\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(lines[0].preprocessor);
  EXPECT_FALSE(lines[1].preprocessor);
  EXPECT_NE(lines[0].code.find("la/kernels.h"), std::string::npos);
}

TEST(LexLinesTest, PreprocessorContinuationStaysPreprocessor) {
  const auto lines = LexLines("#define FOO(a) \\\n  ((a) + 1)\nint y;\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(lines[0].preprocessor);
  EXPECT_TRUE(lines[1].preprocessor);
  EXPECT_FALSE(lines[2].preprocessor);
}

// ---------------------------------------------------------------------
// Determinism checks
// ---------------------------------------------------------------------

TEST(NoRandCheckTest, FiresOnRandOutsideUtilAndBench) {
  const std::string snippet = "int f() { return std::rand(); }\n";
  EXPECT_TRUE(HasCheck(Scan("src/core/x.cc", snippet), "no-rand"));
  EXPECT_FALSE(HasCheck(Scan("src/util/x.cc", snippet), "no-rand"));
  EXPECT_FALSE(HasCheck(Scan("bench/x.cc", snippet), "no-rand"));
}

TEST(NoRandCheckTest, FiresOnTimeButNotLookalikes) {
  EXPECT_TRUE(
      HasCheck(Scan("src/a.cc", "long t() { return time(nullptr); }\n"),
               "no-rand"));
  EXPECT_TRUE(HasCheck(Scan("src/a.cc", "std::random_device rd;\n"),
                       "no-rand"));
  // Clock reads moved to the no-raw-clock check.
  EXPECT_FALSE(HasCheck(
      Scan("src/a.cc", "auto t = std::chrono::steady_clock::now();\n"),
      "no-rand"));
  // Identifiers merely containing the banned substrings do not fire.
  EXPECT_FALSE(HasCheck(
      Scan("src/a.cc", "double r = Runtime(x); int b = brand; h = now;\n"),
      "no-rand"));
}

TEST(NoRawClockCheckTest, FiresOnClockTypesAndNowCallsOutsideUtil) {
  const std::string now_call =
      "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(HasCheck(Scan("src/core/x.cc", now_call), "no-raw-clock"));
  // Unlike no-rand, bench/ and tests/ are NOT exempt: all timing goes
  // through Stopwatch/obs.
  EXPECT_TRUE(HasCheck(Scan("bench/x.cc", now_call), "no-raw-clock"));
  EXPECT_TRUE(HasCheck(Scan("tests/x.cc", now_call), "no-raw-clock"));
  EXPECT_FALSE(HasCheck(Scan("src/util/stopwatch.h", now_call),
                        "no-raw-clock"));
  // A clock type mention without ::now (aliasing it for later use) is
  // still a raw clock acquisition.
  EXPECT_TRUE(HasCheck(
      Scan("src/a.cc", "using Clock = std::chrono::high_resolution_clock;\n"),
      "no-raw-clock"));
  EXPECT_TRUE(HasCheck(
      Scan("src/a.cc", "std::chrono::system_clock::time_point deadline;\n"),
      "no-raw-clock"));
}

TEST(NoRawClockCheckTest, DurationsAndLookalikesAreQuiet) {
  // chrono durations (sleep_for etc.) are not clock reads.
  EXPECT_FALSE(HasCheck(
      Scan("src/a.cc",
           "std::this_thread::sleep_for(std::chrono::milliseconds(5));\n"),
      "no-raw-clock"));
  EXPECT_FALSE(HasCheck(
      Scan("src/a.cc", "int my_steady_clock_count = 0; h = now;\n"),
      "no-raw-clock"));
}

TEST(NoRawClockCheckTest, SuppressionWithReasonIsHonored) {
  const std::string snippet =
      "// wym-lint: allow(no-raw-clock): interop with external API wanting a time_point\n"
      "auto t = std::chrono::steady_clock::now();\n";
  ScanStats stats;
  EXPECT_FALSE(HasCheck(Scan("src/core/x.cc", snippet, &stats),
                        "no-raw-clock"));
  EXPECT_EQ(stats.suppressions_honored, 1u);
}

TEST(NoRandCheckTest, CommentedAndQuotedPatternsDoNotFire) {
  EXPECT_FALSE(HasCheck(
      Scan("src/a.cc", "// std::rand()\nauto s = \"rand()\";\n"), "no-rand"));
}

TEST(UnorderedIterationCheckTest, FiresOnlyInOutputWritingFiles) {
  const std::string writer =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m_;\n"
      "void Save() { for (const auto& kv : m_) { Use(kv); } }\n";
  const auto findings = Scan("src/core/x.cc", writer);
  EXPECT_TRUE(HasCheck(findings, "unordered-iteration"));
  EXPECT_EQ(LineOf(findings, "unordered-iteration"), 3);

  // Same iteration in a file with no serializer/Save marker: quiet.
  const std::string reader =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m_;\n"
      "void Emit() { for (const auto& kv : m_) { Use(kv); } }\n";
  EXPECT_FALSE(HasCheck(Scan("src/core/x.cc", reader),
                        "unordered-iteration"));
}

TEST(UnorderedIterationCheckTest, BlockingCandidateTusCountAsWriters) {
  // A blocking TU that emits CandidatePair lists promises byte-identical
  // candidate output, so hash-order iteration is flagged even without a
  // serializer marker.
  const std::string emitter =
      "#include <unordered_map>\n"
      "std::unordered_map<size_t, size_t> counts_;\n"
      "void Emit(std::vector<CandidatePair>* out) {\n"
      "  for (const auto& kv : counts_) { Use(kv); }\n"
      "}\n";
  const auto findings = Scan("src/blocking/probe.cc", emitter);
  EXPECT_TRUE(HasCheck(findings, "unordered-iteration"));
  EXPECT_EQ(LineOf(findings, "unordered-iteration"), 4);

  // The same TU outside src/blocking/ has no output marker: quiet.
  EXPECT_FALSE(HasCheck(Scan("src/core/probe.cc", emitter),
                        "unordered-iteration"));
}

TEST(UnorderedIterationCheckTest, OrderedContainerIsQuiet) {
  const std::string snippet =
      "std::map<int, int> m_;\n"
      "void Save() { for (const auto& kv : m_) { Use(kv); } }\n";
  EXPECT_FALSE(HasCheck(Scan("src/core/x.cc", snippet),
                        "unordered-iteration"));
}

TEST(NoParallelReduceCheckTest, FiresOnStdReduceAndExecution) {
  EXPECT_TRUE(HasCheck(
      Scan("src/a.cc", "double s = std::reduce(v.begin(), v.end());\n"),
      "no-parallel-reduce"));
  EXPECT_TRUE(HasCheck(
      Scan("src/a.cc", "std::sort(std::execution::par, b, e);\n"),
      "no-parallel-reduce"));
  EXPECT_FALSE(HasCheck(
      Scan("src/a.cc", "double s = std::accumulate(b, e, 0.0);\n"),
      "no-parallel-reduce"));
}

TEST(KernelBypassCheckTest, FiresOnDotLoopsInMathDirsOnly) {
  const std::string dot =
      "for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];\n";
  EXPECT_TRUE(HasCheck(Scan("src/ml/x.cc", dot),
                       "kernel-bypass-accumulation"));
  EXPECT_TRUE(HasCheck(Scan("src/la/x.cc", dot),
                       "kernel-bypass-accumulation"));
  // The similarity consumers in src/core and src/blocking are covered too.
  EXPECT_TRUE(HasCheck(Scan("src/core/x.cc", dot),
                       "kernel-bypass-accumulation"));
  EXPECT_TRUE(HasCheck(Scan("src/blocking/x.cc", dot),
                       "kernel-bypass-accumulation"));
  // Outside the covered subsystems: quiet.
  EXPECT_FALSE(HasCheck(Scan("src/obs/x.cc", dot),
                        "kernel-bypass-accumulation"));
  // The kernel TUs implement the pinned order itself.
  EXPECT_FALSE(HasCheck(Scan("src/la/kernels.cc", dot),
                        "kernel-bypass-accumulation"));
  EXPECT_FALSE(HasCheck(Scan("src/la/kernels_avx2.cc", dot),
                        "kernel-bypass-accumulation"));
}

TEST(KernelBypassCheckTest, FiresOnInt8DotLoopAndHonorsSuppression) {
  // The check is pattern-based: an integer dot loop has the same
  // reduction shape as a float one and is flagged the same way.
  const std::string i8_dot =
      "for (size_t i = 0; i < n; ++i)\n"
      "  acc += static_cast<int32_t>(qa[i]) * static_cast<int32_t>(qb[i]);\n";
  EXPECT_TRUE(HasCheck(Scan("src/core/x.cc", i8_dot),
                       "kernel-bypass-accumulation"));
  EXPECT_TRUE(HasCheck(Scan("src/blocking/x.cc", i8_dot),
                       "kernel-bypass-accumulation"));
  ScanStats stats;
  const std::string suppressed =
      "for (size_t i = 0; i < n; ++i)\n"
      "  // wym-lint: allow(kernel-bypass-accumulation): exactness proof "
      "needs the naive form\n"
      "  acc += static_cast<int32_t>(qa[i]) * static_cast<int32_t>(qb[i]);\n";
  EXPECT_FALSE(HasCheck(Scan("src/core/x.cc", suppressed, &stats),
                        "kernel-bypass-accumulation"));
  EXPECT_EQ(stats.suppressions_honored, 1u);
}

TEST(KernelBypassCheckTest, ElementwiseAccumulationIsQuiet) {
  // Indexed accumulator: each element is an independent sum, no
  // reduction order to pin.
  EXPECT_FALSE(HasCheck(
      Scan("src/ml/x.cc",
           "for (size_t i = 0; i < n; ++i) out[i] += a[i] * b[i];\n"),
      "kernel-bypass-accumulation"));
  // Scalar-times-gather with a single subscript: not a dot shape.
  EXPECT_FALSE(HasCheck(
      Scan("src/ml/x.cc",
           "for (size_t i = 0; i < n; ++i) acc += w * y[idx];\n"),
      "kernel-bypass-accumulation"));
}

// ---------------------------------------------------------------------
// Safety checks
// ---------------------------------------------------------------------

TEST(RawNewDeleteCheckTest, FiresOnNewAndDelete) {
  EXPECT_TRUE(HasCheck(Scan("src/a.cc", "int* p = new int;\n"),
                       "no-raw-new-delete"));
  EXPECT_TRUE(HasCheck(Scan("src/a.cc", "delete p;\n"),
                       "no-raw-new-delete"));
  EXPECT_TRUE(HasCheck(Scan("src/a.cc", "delete[] p;\n"),
                       "no-raw-new-delete"));
}

TEST(RawNewDeleteCheckTest, IgnoresIncludeOfNewHeader) {
  EXPECT_FALSE(HasCheck(Scan("src/a.cc", "#include <new>\n"),
                        "no-raw-new-delete"));
  EXPECT_FALSE(HasCheck(Scan("src/a.cc", "  #  include <new>  // hw sizes\n"),
                        "no-raw-new-delete"));
  // Other directives are still read: a macro body can hold a raw new.
  EXPECT_TRUE(HasCheck(Scan("src/a.cc", "#define MAKE new int\n"),
                       "no-raw-new-delete"));
}

TEST(RawNewDeleteCheckTest, AllowsDeletedFunctionsAndPlacementNew) {
  EXPECT_FALSE(HasCheck(Scan("src/a.h",
                             "#ifndef WYM_A_H_\n#define WYM_A_H_\n"
                             "struct F { F(const F&) = delete; };\n"
                             "#endif  // WYM_A_H_\n"),
                        "no-raw-new-delete"));
  EXPECT_FALSE(HasCheck(Scan("src/a.cc", "auto* q = new (buffer) Foo();\n"),
                        "no-raw-new-delete"));
  // Identifiers containing the keywords are not the keywords.
  EXPECT_FALSE(HasCheck(Scan("src/a.cc", "int news = renew + deleted;\n"),
                        "no-raw-new-delete"));
}

TEST(MemcpyCheckTest, FiresOnNonTriviallyCopyableHints) {
  EXPECT_TRUE(HasCheck(
      Scan("src/a.cc",
           "std::memcpy(dst, src, n * sizeof(std::string));\n"),
      "memcpy-nontrivial"));
  EXPECT_FALSE(HasCheck(
      Scan("src/a.cc", "std::memcpy(dst, src, n * sizeof(float));\n"),
      "memcpy-nontrivial"));
}

TEST(HeaderGuardCheckTest, EnforcesPathDerivedGuardNames) {
  const std::string good =
      "#ifndef WYM_FOO_BAR_H_\n#define WYM_FOO_BAR_H_\n#endif\n";
  EXPECT_FALSE(HasCheck(Scan("src/foo/bar.h", good), "header-guard"));
  // The src/ prefix is dropped but tests/bench/tools prefixes are kept.
  EXPECT_TRUE(HasCheck(Scan("src/baz/bar.h", good), "header-guard"));
  EXPECT_FALSE(HasCheck(
      Scan("bench/common.h",
           "#ifndef WYM_BENCH_COMMON_H_\n#define WYM_BENCH_COMMON_H_\n"
           "#endif\n"),
      "header-guard"));
}

TEST(HeaderGuardCheckTest, FiresOnMissingGuardOrMismatchedDefine) {
  EXPECT_TRUE(HasCheck(Scan("src/foo/bar.h", "int x;\n"), "header-guard"));
  EXPECT_TRUE(HasCheck(
      Scan("src/foo/bar.h",
           "#ifndef WYM_FOO_BAR_H_\n#define WYM_OTHER_H_\n#endif\n"),
      "header-guard"));
  // Non-headers are exempt.
  EXPECT_FALSE(HasCheck(Scan("src/foo/bar.cc", "int x;\n"), "header-guard"));
}

TEST(UsingNamespaceHeaderCheckTest, HeadersOnly) {
  const std::string snippet =
      "#ifndef WYM_A_H_\n#define WYM_A_H_\n"
      "using namespace std;\n#endif\n";
  EXPECT_TRUE(
      HasCheck(Scan("src/a.h", snippet), "no-using-namespace-header"));
  EXPECT_FALSE(HasCheck(Scan("src/a.cc", "using namespace std;\n"),
                        "no-using-namespace-header"));
}

// ---------------------------------------------------------------------
// Hygiene checks
// ---------------------------------------------------------------------

TEST(SimdCheckTest, IntrinsicsConfinedToKernelTus) {
  EXPECT_TRUE(HasCheck(
      Scan("src/core/x.cc", "__m256d v = _mm256_setzero_pd();\n"),
      "simd-outside-kernels"));
  EXPECT_TRUE(HasCheck(Scan("src/core/x.cc", "#include <immintrin.h>\n"),
                       "simd-outside-kernels"));
  EXPECT_FALSE(HasCheck(
      Scan("src/la/kernels_avx2.cc",
           "#include <immintrin.h>\n__m256d v = _mm256_setzero_pd();\n"),
      "simd-outside-kernels"));
}

TEST(SimdCheckTest, Int8IntrinsicsAndHeadersCoveredOutsideKernels) {
  // Integer widening/madd intrinsics carry the same _mm prefixes and
  // must stay confined to the AVX2 kernel TU like the float ones.
  EXPECT_TRUE(HasCheck(
      Scan("src/core/x.cc",
           "__m128i s = _mm_madd_epi16(_mm_srai_epi16(v, 8), w);\n"),
      "simd-outside-kernels"));
  EXPECT_TRUE(HasCheck(
      Scan("src/blocking/x.cc",
           "__m256i s = _mm256_cvtepi8_epi16(_mm_loadl_epi64(p));\n"),
      "simd-outside-kernels"));
  EXPECT_TRUE(HasCheck(Scan("src/core/x.cc", "#include <nmmintrin.h>\n"),
                       "simd-outside-kernels"));
  EXPECT_TRUE(HasCheck(Scan("src/core/x.cc", "#include <pmmintrin.h>\n"),
                       "simd-outside-kernels"));
  // The AVX2 kernel TU stays exempt for the integer intrinsics too.
  EXPECT_FALSE(HasCheck(
      Scan("src/la/kernels_avx2.cc",
           "__m128i s = _mm_madd_epi16(_mm_srai_epi16(v, 8), w);\n"),
      "simd-outside-kernels"));
  // It is the only exempt file: a revived SSE2 TU is flagged.
  EXPECT_TRUE(HasCheck(
      Scan("src/la/kernels_sse2.cc",
           "#include <emmintrin.h>\n__m128d v = _mm_setzero_pd();\n"),
      "simd-outside-kernels"));
  ScanStats stats;
  EXPECT_FALSE(HasCheck(
      Scan("src/core/x.cc",
           "// wym-lint: allow(simd-outside-kernels): doc snippet quoting "
           "the kernel\n"
           "__m128i s = _mm_madd_epi16(v, w);\n",
           &stats),
      "simd-outside-kernels"));
  EXPECT_EQ(stats.suppressions_honored, 1u);
}

TEST(NoCoutCheckTest, LibraryCodeOnly) {
  const std::string snippet = "void f() { std::cout << 1; }\n";
  EXPECT_TRUE(HasCheck(Scan("src/core/x.cc", snippet), "no-cout"));
  EXPECT_FALSE(HasCheck(Scan("tools/x.cc", snippet), "no-cout"));
  EXPECT_FALSE(HasCheck(Scan("bench/x.cc", snippet), "no-cout"));
}

TEST(TodoCheckTest, RequiresIssueReference) {
  EXPECT_TRUE(HasCheck(Scan("src/a.cc", "// TODO: make this faster\n"),
                       "todo-issue"));
  EXPECT_FALSE(HasCheck(Scan("src/a.cc", "// TODO(#42): make this faster\n"),
                        "todo-issue"));
}

TEST(UncheckedStatusTest, BareRegistryCallIsFlagged) {
  EXPECT_TRUE(HasCheck(
      Scan("src/core/x.cc", "void f() {\n  model.SaveToFile(path);\n}\n"),
      "unchecked-status"));
  EXPECT_TRUE(HasCheck(
      Scan("tools/x.cc",
           "void f() {\n  data::WriteDatasetCsv(ds, path);\n}\n"),
      "unchecked-status"));
  EXPECT_TRUE(HasCheck(
      Scan("src/a.cc",
           "void f() {\n  io::WriteFileAtomic(path, bytes);\n}\n"),
      "unchecked-status"));
}

TEST(UncheckedStatusTest, CheckedCallsAreNotFlagged) {
  const std::string snippet =
      "void f() {\n"
      "  const Status s = model.SaveToFile(path);\n"
      "  if (!data::WriteDatasetCsv(ds, path).ok()) return;\n"
      "  return io::WriteFileAtomic(path, bytes);\n"
      "  WYM_RETURN_IF_ERROR(model.SaveToFile(path));\n"
      "}\n";
  EXPECT_FALSE(HasCheck(Scan("src/core/x.cc", snippet), "unchecked-status"));
}

TEST(UncheckedStatusTest, FileLocalStatusFunctionIsDiscovered) {
  EXPECT_TRUE(HasCheck(
      Scan("src/core/x.cc",
           "Status DoThing(int n);\n"
           "void f() {\n  DoThing(3);\n}\n"),
      "unchecked-status"));
  EXPECT_TRUE(HasCheck(
      Scan("src/core/x.cc",
           "Result<int> Parse(const std::string& s);\n"
           "void f() {\n  Parse(text);\n}\n"),
      "unchecked-status"));
  // Functions with non-Status returns are not candidates.
  EXPECT_FALSE(HasCheck(
      Scan("src/core/x.cc",
           "int DoThing(int n);\n"
           "void f() {\n  DoThing(3);\n}\n"),
      "unchecked-status"));
}

TEST(UncheckedStatusTest, ContinuationLinesAreNotStatementStarts) {
  // The call begins a line but continues the assignment above it.
  EXPECT_FALSE(HasCheck(
      Scan("src/core/x.cc",
           "void f() {\n"
           "  const Status s =\n"
           "      io::WriteFileAtomic(path, bytes);\n"
           "}\n"),
      "unchecked-status"));
}

TEST(UncheckedStatusTest, DeclarationsAreNotCallSites) {
  EXPECT_FALSE(HasCheck(
      Scan("src/core/x.h",
           "class M {\n"
           "  Status SaveToFile(const std::string& path) const;\n"
           "};\n"),
      "unchecked-status"));
  EXPECT_FALSE(HasCheck(
      Scan("src/util/status.cc",
           "Status Status::Annotate(const std::string& c) const {\n"
           "  return *this;\n"
           "}\n"),
      "unchecked-status"));
}

TEST(UncheckedStatusTest, SuppressionWorks) {
  EXPECT_FALSE(HasCheck(
      Scan("src/core/x.cc",
           "void f() {\n"
           "  model.SaveToFile(path);  "
           "// wym-lint: allow(unchecked-status): best-effort cache save\n"
           "}\n"),
      "unchecked-status"));
}

// ---------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------

TEST(SuppressionTest, SameLineMarkerSuppressesAndIsCounted) {
  ScanStats stats;
  const auto findings = Scan(
      "src/core/x.cc",
      "int f() { return std::rand(); }  "
      "// wym-lint: allow(no-rand): deliberate for this test\n",
      &stats);
  EXPECT_FALSE(HasCheck(findings, "no-rand"));
  EXPECT_FALSE(HasCheck(findings, "lint-suppression"));
  EXPECT_EQ(stats.suppressions_honored, 1);
}

TEST(SuppressionTest, PrecedingLineMarkerCoversNextLine) {
  const auto findings = Scan(
      "src/core/x.cc",
      "// wym-lint: allow(no-rand): deliberate for this test\n"
      "int f() { return std::rand(); }\n");
  EXPECT_FALSE(HasCheck(findings, "no-rand"));
  EXPECT_FALSE(HasCheck(findings, "lint-suppression"));
}

TEST(SuppressionTest, DoesNotReachPastTheNextLine) {
  const auto findings = Scan(
      "src/core/x.cc",
      "// wym-lint: allow(no-rand): too far away\n"
      "int a;\n"
      "int f() { return std::rand(); }\n");
  EXPECT_TRUE(HasCheck(findings, "no-rand"));
  // And the marker is now stale, which is itself a finding — under its
  // own check id so the drivers can map it to exit code 6.
  EXPECT_TRUE(HasCheck(findings, "stale-suppression"));
}

TEST(SuppressionTest, AnalysisCheckMarkersAreNotStaleForTheLintPass) {
  // allow(layer-order) etc. belong to `wym_lint graph` / `taint`; the
  // token pass must validate them but never do their stale accounting.
  const auto findings = Scan(
      "src/core/x.cc",
      "// wym-lint: allow(layer-order): owned by the graph pass\n"
      "// wym-lint: allow(taint-flow): owned by the taint pass\n"
      "// wym-lint: allow(include-cycle): owned by the graph pass\n"
      "int x;\n");
  EXPECT_FALSE(HasCheck(findings, "stale-suppression"));
  EXPECT_FALSE(HasCheck(findings, "lint-suppression"));
}

TEST(SuppressionTest, WrongCheckNameDoesNotSuppress) {
  const auto findings = Scan(
      "src/core/x.cc",
      "int f() { return std::rand(); }  "
      "// wym-lint: allow(no-cout): wrong check\n");
  EXPECT_TRUE(HasCheck(findings, "no-rand"));
}

TEST(SuppressionTest, UnknownCheckAndMissingReasonAreFindings) {
  EXPECT_TRUE(HasCheck(
      Scan("src/a.cc", "// wym-lint: allow(not-a-check): whatever\n"),
      "lint-suppression"));
  EXPECT_TRUE(HasCheck(
      Scan("src/core/x.cc",
           "int f() { return std::rand(); }  // wym-lint: allow(no-rand)\n"),
      "lint-suppression"));
}

TEST(SuppressionTest, MarkerInsideStringLiteralIsInert) {
  const auto findings = Scan(
      "src/a.cc", "auto s = \"// wym-lint: allow(no-rand): nope\";\n");
  EXPECT_FALSE(HasCheck(findings, "lint-suppression"));
}

// ---------------------------------------------------------------------
// API surface
// ---------------------------------------------------------------------

TEST(FormatFindingTest, MatchesTheDocumentedContract) {
  const Finding f{"src/a.cc", 7, "no-rand", "message text"};
  EXPECT_EQ(FormatFinding(f), "src/a.cc:7: [no-rand] message text");
}

TEST(CheckCatalogTest, KnownChecksAreStableAndQueryable) {
  EXPECT_TRUE(IsKnownCheck("no-rand"));
  EXPECT_TRUE(IsKnownCheck("lint-suppression"));
  EXPECT_TRUE(IsKnownCheck("stale-suppression"));
  EXPECT_FALSE(IsKnownCheck("definitely-not-a-check"));
  EXPECT_GE(AllCheckNames().size(), 12u);
}

TEST(CheckCatalogTest, AnalysisChecksRegisterButAreNotTokenChecks) {
  // The cross-TU checks validate as marker names everywhere, but their
  // use/stale accounting belongs to the graph/taint passes.
  for (const char* name : {"layer-order", "include-cycle", "taint-flow"}) {
    EXPECT_TRUE(IsKnownCheck(name)) << name;
    EXPECT_FALSE(IsTokenCheck(name)) << name;
  }
  EXPECT_TRUE(IsTokenCheck("no-rand"));
  EXPECT_TRUE(IsTokenCheck("stale-suppression"));
  EXPECT_FALSE(IsTokenCheck("definitely-not-a-check"));
}

TEST(MarkerParserTest, CollectsWellFormedMarkersAndReportsMalformed) {
  const auto lines = LexLines(
      "int a;  // wym-lint: allow(no-rand): first\n"
      "// wym-lint: allow(layer-order): second\n"
      "// wym-lint: allow(no-rand)\n"        // missing reason
      "// wym-lint: allow(nope): unknown\n"  // unknown check
      "auto s = \"// wym-lint: allow(no-rand): in a string\";\n");
  std::vector<Finding> malformed;
  const auto markers = CollectSuppressionMarkers("src/a.cc", lines,
                                                 &malformed);
  ASSERT_EQ(markers.size(), 2u);
  EXPECT_EQ(markers[0].line, 1);
  EXPECT_EQ(markers[0].check, "no-rand");
  EXPECT_EQ(markers[0].reason, "first");
  EXPECT_EQ(markers[1].line, 2);
  EXPECT_EQ(markers[1].check, "layer-order");
  ASSERT_EQ(malformed.size(), 2u);
  EXPECT_EQ(malformed[0].line, 3);
  EXPECT_EQ(malformed[1].line, 4);
}

TEST(LexHelperTest, WordAndCallMatchingRespectsIdentifierBoundaries) {
  EXPECT_TRUE(HasWord("steady_clock::now()", "steady_clock"));
  EXPECT_FALSE(HasWord("mysteady_clock", "steady_clock"));
  EXPECT_EQ(FindWord("xrand rand", "rand"), 6u);
  EXPECT_TRUE(HasCall("get_id ()", "get_id"));
  EXPECT_FALSE(HasCall("get_id;", "get_id"));
}

TEST(ScanSourceTest, FindingsAreSortedByLine) {
  const auto findings = Scan(
      "src/core/x.cc",
      "int* p = new int;\n"
      "int f() { return std::rand(); }\n"
      "void g() { std::cout << 1; }\n");
  ASSERT_GE(findings.size(), 3u);
  for (size_t i = 1; i < findings.size(); ++i) {
    EXPECT_LE(findings[i - 1].line, findings[i].line);
  }
}

}  // namespace
}  // namespace wym::lint
