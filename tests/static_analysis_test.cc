// Tests for the cross-TU analyzers (src/analysis): include-graph
// layering + cycles, the approximate call graph, the determinism taint
// pass, and the shared findings/report model. Fixture trees are built
// from string literals — no filesystem — which is exactly what
// SourceTree::Add exists for.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/call_graph.h"
#include "analysis/findings.h"
#include "analysis/include_graph.h"
#include "analysis/source_model.h"
#include "analysis/taint.h"
#include "obs/json.h"

namespace wym::analysis {
namespace {

bool HasCheck(const std::vector<lint::Finding>& findings,
              const std::string& check) {
  for (const lint::Finding& f : findings) {
    if (f.check == check) return true;
  }
  return false;
}

const lint::Finding* FindCheck(const Report& report,
                               const std::string& check) {
  for (const lint::Finding& f : report.findings) {
    if (f.check == check) return &f;
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// Source model

TEST(SourceModelTest, FilesStaySortedAndIndexable) {
  SourceTree tree;
  tree.Add("src/util/b.h", "int b;\n");
  tree.Add("src/core/a.h", "int a;\n");
  tree.Add("tools/c.cc", "int c;\n");
  ASSERT_EQ(tree.files.size(), 3u);
  EXPECT_EQ(tree.files[0].path, "src/core/a.h");
  EXPECT_EQ(tree.files[1].path, "src/util/b.h");
  EXPECT_EQ(tree.files[2].path, "tools/c.cc");
  EXPECT_EQ(tree.IndexOf("src/util/b.h"), 1u);
  EXPECT_EQ(tree.IndexOf("missing.h"), SourceTree::npos);
}

TEST(SourceModelTest, MarkersAreParsedAndMalformedOnesQuarantined) {
  SourceTree tree;
  tree.Add("src/core/a.cc",
           "// wym-lint: allow(layer-order): sanctioned edge\n"
           "#include \"core/b.h\"\n"
           "// wym-lint: allow(not-a-check): bogus\n");
  const SourceFile& file = tree.files[0];
  ASSERT_EQ(file.suppressions.size(), 1u);
  EXPECT_EQ(file.suppressions[0].check, "layer-order");
  EXPECT_EQ(file.suppressions[0].reason, "sanctioned edge");
  // The malformed marker never lands in `suppressions` (fail-safe) but
  // is preserved for the lint pass.
  ASSERT_EQ(file.marker_findings.size(), 1u);
  EXPECT_EQ(file.marker_findings[0].check, "lint-suppression");
}

TEST(SourceModelTest, SuppressionCoversOwnLineAndNextOnly) {
  SourceTree tree;
  tree.Add("src/core/a.cc",
           "// wym-lint: allow(taint-flow): pinned below\n"
           "int x;\n"
           "int y;\n");
  const SourceFile& file = tree.files[0];
  EXPECT_NE(FindSuppression(file, "taint-flow", 1), nullptr);
  EXPECT_NE(FindSuppression(file, "taint-flow", 2), nullptr);
  EXPECT_EQ(FindSuppression(file, "taint-flow", 3), nullptr);
  EXPECT_EQ(FindSuppression(file, "layer-order", 2), nullptr);
}

// ---------------------------------------------------------------------
// Include graph: layering

// A fixture with one clean downward edge and one upward violation:
// src/la (layer 2) including src/core (layer 4).
SourceTree LayeringFixture(bool suppressed) {
  SourceTree tree;
  tree.Add("src/util/io.h", "#pragma once\n");
  tree.Add("src/core/model.h", "#include \"util/io.h\"\n");
  std::string la = suppressed
                       ? "// wym-lint: allow(layer-order): test fixture\n"
                         "#include \"core/model.h\"\n"
                       : "#include \"core/model.h\"\n";
  tree.Add("src/la/kernels.cc", la);
  return tree;
}

TEST(IncludeGraphTest, ResolvesSrcRelativeAndIncluderRelative) {
  SourceTree tree;
  tree.Add("src/core/model.h", "#pragma once\n");
  tree.Add("src/core/model.cc",
           "#include \"model.h\"\n"         // includer-relative
           "#include \"core/model.h\"\n"    // src-relative
           "#include <vector>\n");          // system: ignored
  const IncludeGraph graph = BuildIncludeGraph(tree);
  ASSERT_EQ(graph.edges.size(), 2u);
  EXPECT_EQ(tree.files[graph.edges[0].to].path, "src/core/model.h");
  EXPECT_EQ(graph.edges[0].line, 1);
  EXPECT_EQ(graph.edges[1].line, 2);
}

TEST(IncludeGraphTest, UpwardIncludeIsALayerOrderFinding) {
  const SourceTree tree = LayeringFixture(/*suppressed=*/false);
  const Report report = RunGraphPass(tree);
  const lint::Finding* finding = FindCheck(report, "layer-order");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->path, "src/la/kernels.cc");
  EXPECT_EQ(finding->line, 1);
  EXPECT_NE(finding->message.find("src/core/model.h"), std::string::npos);
  EXPECT_NE(finding->message.find("src/core"), std::string::npos);
  EXPECT_EQ(report.ExitCode(), 5);
}

TEST(IncludeGraphTest, ReasonedSuppressionClearsTheViolation) {
  const SourceTree tree = LayeringFixture(/*suppressed=*/true);
  const Report report = RunGraphPass(tree);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.suppressions_honored, 1);
  EXPECT_EQ(report.ExitCode(), 0);
}

TEST(IncludeGraphTest, StaleLayerOrderMarkerIsExitSix) {
  SourceTree tree;
  tree.Add("src/core/model.cc",
           "// wym-lint: allow(layer-order): excuses nothing\n"
           "int x;\n");
  const Report report = RunGraphPass(tree);
  const lint::Finding* stale = FindCheck(report, "stale-suppression");
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->line, 1);
  EXPECT_EQ(report.ExitCode(), 6);
}

TEST(IncludeGraphTest, DownwardAndSidewaysEdgesAreClean) {
  SourceTree tree;
  tree.Add("src/util/io.h", "#pragma once\n");
  tree.Add("src/core/model.h", "#include \"util/io.h\"\n");
  tree.Add("src/la/vec.h", "#include \"text/tok.h\"\n");  // sideways, 2->2
  tree.Add("src/text/tok.h", "#include \"util/io.h\"\n");
  tree.Add("tools/cli.cc", "#include \"core/model.h\"\n");
  const Report report = RunGraphPass(tree);
  EXPECT_TRUE(report.findings.empty()) << RenderText(report);
}

TEST(IncludeGraphTest, ServeSitsAboveCoreBesideBlocking) {
  // serve -> core (down) and serve -> blocking (sideways, 5 -> 5) are
  // clean; core -> serve is an upward edge and a finding.
  SourceTree tree;
  tree.Add("src/core/wym.h", "#pragma once\n");
  tree.Add("src/blocking/fingerprint.h", "#include \"core/wym.h\"\n");
  tree.Add("src/serve/service.h",
           "#include \"core/wym.h\"\n"
           "#include \"blocking/fingerprint.h\"\n");
  const Report clean = RunGraphPass(tree);
  EXPECT_TRUE(clean.findings.empty()) << RenderText(clean);

  tree.Add("src/core/bad.cc", "#include \"serve/service.h\"\n");
  const Report report = RunGraphPass(tree);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].check, "layer-order");
  EXPECT_EQ(report.findings[0].path, "src/core/bad.cc");
}

// ---------------------------------------------------------------------
// Include graph: cycles

TEST(IncludeGraphTest, IncludeCycleIsReportedOnceAtSmallestMember) {
  SourceTree tree;
  tree.Add("src/core/a.h", "#include \"core/b.h\"\n");
  tree.Add("src/core/b.h", "#include \"core/c.h\"\n");
  tree.Add("src/core/c.h", "#include \"core/a.h\"\n");
  const Report report = RunGraphPass(tree);
  ASSERT_EQ(report.findings.size(), 1u);
  const lint::Finding& f = report.findings[0];
  EXPECT_EQ(f.check, "include-cycle");
  EXPECT_EQ(f.path, "src/core/a.h");
  EXPECT_EQ(f.line, 1);
  EXPECT_NE(
      f.message.find("src/core/a.h -> src/core/b.h -> src/core/c.h -> "
                     "src/core/a.h"),
      std::string::npos)
      << f.message;
  EXPECT_EQ(report.ExitCode(), 5);
}

TEST(IncludeGraphTest, IncludeCycleCannotBeSuppressed) {
  SourceTree tree;
  tree.Add("src/core/a.h",
           "// wym-lint: allow(include-cycle): trying anyway\n"
           "#include \"core/b.h\"\n");
  tree.Add("src/core/b.h", "#include \"core/a.h\"\n");
  const Report report = RunGraphPass(tree);
  EXPECT_TRUE(HasCheck(report.findings, "include-cycle"));
  // The marker is stale by definition, which gates harder (exit 6).
  EXPECT_TRUE(HasCheck(report.findings, "stale-suppression"));
  EXPECT_EQ(report.ExitCode(), 6);
}

TEST(IncludeGraphTest, AcyclicTreeHasNoCycleFindings) {
  SourceTree tree;
  tree.Add("src/core/a.h", "#include \"core/b.h\"\n");
  tree.Add("src/core/b.h", "#pragma once\n");
  const Report report = RunGraphPass(tree);
  EXPECT_FALSE(HasCheck(report.findings, "include-cycle"));
}

// ---------------------------------------------------------------------
// Layer table

TEST(LayerTest, DeclaredRanksMatchTheDag) {
  EXPECT_EQ(LayerOf("src/util/io.h"), 0);
  EXPECT_EQ(LayerOf("src/obs/metrics.h"), 1);
  EXPECT_EQ(LayerOf("src/la/kernels.h"), 2);
  EXPECT_EQ(LayerOf("src/analysis/taint.h"), 2);
  EXPECT_EQ(LayerOf("src/matching/stable_marriage.h"), 3);
  EXPECT_EQ(LayerOf("src/core/model.h"), 4);
  EXPECT_EQ(LayerOf("src/explain/explainer.h"), 5);
  EXPECT_EQ(LayerOf("src/serve/service.h"), 5);
  EXPECT_EQ(LayerOf("tools/wym_cli.cc"), 6);
  EXPECT_EQ(LayerOf("tests/core_test.cc"), 6);
  EXPECT_EQ(LayerOf("README.md"), kLayerUnknown);
  EXPECT_EQ(LayerName(4), "src/core");
}

// ---------------------------------------------------------------------
// Call graph

TEST(CallGraphTest, RecoversQualifiedDefinitionsAndEdges) {
  SourceTree tree;
  tree.Add("src/core/model.cc",
           "namespace wym::core {\n"
           "int Helper(int x) { return x + 1; }\n"
           "int Entry() { return Helper(2); }\n"
           "}  // namespace wym::core\n");
  const CallGraph graph = BuildCallGraph(tree);
  ASSERT_EQ(graph.defs.size(), 2u);
  EXPECT_EQ(graph.defs[0].qualified_name, "wym::core::Helper");
  EXPECT_EQ(graph.defs[1].qualified_name, "wym::core::Entry");
  EXPECT_EQ(graph.defs[1].Name(), "Entry");
  ASSERT_EQ(graph.edges.size(), 1u);
  EXPECT_EQ(graph.edges[0].caller, 1u);
  EXPECT_EQ(graph.edges[0].callee, 0u);
  EXPECT_EQ(graph.edges[0].line, 3);
}

TEST(CallGraphTest, OutOfLineMembersGetClassQualifiedNames) {
  SourceTree tree;
  tree.Add("src/core/model.cc",
           "namespace wym::core {\n"
           "struct Model {\n"
           "  void Fit();\n"
           "  int n_ = 0;\n"
           "};\n"
           "void Model::Fit() { n_ = 1; }\n"
           "}  // namespace wym::core\n");
  const CallGraph graph = BuildCallGraph(tree);
  ASSERT_EQ(graph.defs.size(), 1u);
  EXPECT_EQ(graph.defs[0].qualified_name, "wym::core::Model::Fit");
}

TEST(CallGraphTest, ConstructorInitializerListBodyIsADefinition) {
  SourceTree tree;
  tree.Add("src/core/model.cc",
           "namespace wym::core {\n"
           "int Source() { return 1; }\n"
           "struct Model {\n"
           "  Model() : n_(Source()), m_{2} { n_ += Source(); }\n"
           "  int n_; int m_;\n"
           "};\n"
           "}\n");
  const CallGraph graph = BuildCallGraph(tree);
  ASSERT_EQ(graph.defs.size(), 2u);
  EXPECT_EQ(graph.defs[1].qualified_name, "wym::core::Model::Model");
  // The body call resolves; init-list calls are outside the body.
  ASSERT_EQ(graph.edges.size(), 1u);
  EXPECT_EQ(graph.defs[graph.edges[0].callee].Name(), "Source");
}

TEST(CallGraphTest, MemberCallsResolveAcrossFilesWithinDomain) {
  SourceTree tree;
  tree.Add("src/core/model.cc",
           "namespace wym::core {\n"
           "void Run(Writer& w) { w.Write(1); }\n"
           "}\n");
  tree.Add("src/util/io.cc",
           "namespace wym::util {\n"
           "void Writer::Write(int x) { (void)x; }\n"
           "}\n");
  tree.Add("tests/t.cc",
           "void Write(int x) { (void)x; }\n");
  const CallGraph graph = BuildCallGraph(tree);
  // The member call matches the src-domain Write, not the tests one.
  ASSERT_EQ(graph.edges.size(), 1u);
  EXPECT_EQ(graph.defs[graph.edges[0].callee].qualified_name,
            "wym::util::Writer::Write");
}

TEST(CallGraphTest, DeclarationsAndControlKeywordsAreNotCalls) {
  SourceTree tree;
  tree.Add("src/core/model.cc",
           "namespace wym::core {\n"
           "int Declared(int x);\n"
           "int F() {\n"
           "  if (true) { while (false) {} }\n"
           "  return sizeof(int);\n"
           "}\n"
           "}\n");
  const CallGraph graph = BuildCallGraph(tree);
  ASSERT_EQ(graph.defs.size(), 1u);
  EXPECT_EQ(graph.defs[0].qualified_name, "wym::core::F");
  EXPECT_TRUE(graph.edges.empty());
}

// ---------------------------------------------------------------------
// Taint

// The canonical fixture from the design doc: a helper reads a raw
// chrono clock, and a SaveToFile entry point reaches it through an
// intermediate call.
SourceTree TaintFixture(const std::string& seed_prefix) {
  SourceTree tree;
  tree.Add("src/core/model.cc",
           "namespace wym::core {\n"
           "long Ticks() {\n" +
               seed_prefix +
               "  return std::chrono::steady_clock::now()"
               ".time_since_epoch().count();\n"
               "}\n"
               "long Stamp() { return Ticks(); }\n"
               "void SaveToFile(const char* p) { long t = Stamp(); "
               "(void)p; (void)t; }\n"
               "}\n");
  return tree;
}

TEST(TaintTest, ChronoSeedReachesSaveToFileThroughHelperChain) {
  const SourceTree tree = TaintFixture("");
  const Report report = RunTaintPass(tree);
  ASSERT_EQ(report.findings.size(), 1u);
  const lint::Finding& f = report.findings[0];
  EXPECT_EQ(f.check, "taint-flow");
  EXPECT_EQ(f.path, "src/core/model.cc");
  EXPECT_NE(f.message.find("wym::core::SaveToFile -> wym::core::Stamp "
                           "-> wym::core::Ticks"),
            std::string::npos)
      << f.message;
  EXPECT_NE(f.message.find("steady_clock"), std::string::npos);
  EXPECT_EQ(report.ExitCode(), 5);
}

TEST(TaintTest, TaintFlowMarkerAtTheSeedClearsTheChain) {
  const SourceTree tree = TaintFixture(
      "  // wym-lint: allow(taint-flow): fixture-sanctioned clock\n");
  const Report report = RunTaintPass(tree);
  EXPECT_TRUE(report.findings.empty()) << RenderText(report);
  EXPECT_EQ(report.suppressions_honored, 1);
  EXPECT_EQ(report.ExitCode(), 0);
}

TEST(TaintTest, TokenCheckMarkerAlsoClearsTheSeed) {
  // One reasoned exemption serves both passes: the no-raw-clock marker
  // that satisfies the token lint also clears the taint seed.
  const SourceTree tree = TaintFixture(
      "  // wym-lint: allow(no-raw-clock): fixture-sanctioned clock\n");
  const Report report = RunTaintPass(tree);
  EXPECT_TRUE(report.findings.empty()) << RenderText(report);
  EXPECT_EQ(report.suppressions_honored, 1);
}

TEST(TaintTest, StaleTaintMarkerIsExitSix) {
  SourceTree tree;
  tree.Add("src/core/model.cc",
           "namespace wym::core {\n"
           "// wym-lint: allow(taint-flow): excuses nothing\n"
           "void SaveToFile(const char* p) { (void)p; }\n"
           "}\n");
  const Report report = RunTaintPass(tree);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].check, "stale-suppression");
  EXPECT_EQ(report.findings[0].line, 2);
  EXPECT_EQ(report.ExitCode(), 6);
}

TEST(TaintTest, UtilIsTheSanctionedWrapperHome) {
  SourceTree tree;
  tree.Add("src/util/stopwatch.cc",
           "namespace wym::util {\n"
           "long NowNanos() {\n"
           "  return std::chrono::steady_clock::now()"
           ".time_since_epoch().count();\n"
           "}\n"
           "}\n");
  tree.Add("src/core/model.cc",
           "namespace wym::core {\n"
           "void SaveToFile(const char* p) { (void)p; }\n"
           "}\n");
  const Report report = RunTaintPass(tree);
  EXPECT_TRUE(report.findings.empty()) << RenderText(report);
}

TEST(TaintTest, SeedInTestDomainCannotTaintSrcSinks) {
  SourceTree tree;
  tree.Add("src/core/model.cc",
           "namespace wym::core {\n"
           "void SaveToFile(const char* p) { (void)p; }\n"
           "}\n");
  tree.Add("tests/t.cc",
           "int Jitter() { return rand(); }\n");
  const Report report = RunTaintPass(tree);
  EXPECT_TRUE(report.findings.empty()) << RenderText(report);
}

TEST(TaintTest, SinkNamesArePatternMatched) {
  FunctionDef def;
  for (const char* name :
       {"wym::core::Fit", "wym::core::SaveToFile", "wym::PredictBatch",
        "wym::explain::ExplainPair", "wym::SerializeModel"}) {
    def.qualified_name = name;
    EXPECT_TRUE(IsTaintSink(def, "src/core/m.cc")) << name;
  }
  def.qualified_name = "wym::core::Fit";
  EXPECT_FALSE(IsTaintSink(def, "tools/cli.cc"));
  def.qualified_name = "wym::core::Helper";
  EXPECT_FALSE(IsTaintSink(def, "src/core/m.cc"));
}

TEST(TaintTest, ServeRenderFunctionsAreSinks) {
  // The serving layer's wire serializers join the bit-identical
  // promise: Render* in src/serve is a sink, but only there — a
  // Render* helper elsewhere (and a non-Render serve function) is not.
  FunctionDef def;
  def.qualified_name = "wym::serve::RenderResponse";
  EXPECT_TRUE(IsTaintSink(def, "src/serve/protocol.cc"));
  EXPECT_FALSE(IsTaintSink(def, "src/explain/report.cc"));
  def.qualified_name = "wym::serve::HandleRequest";
  EXPECT_FALSE(IsTaintSink(def, "src/serve/service.cc"));
}

TEST(TaintTest, ObsRenderAndDumpFunctionsAreSinks) {
  // Telemetry serializers join the same promise: journal lines,
  // flight-recorder dumps, and telemetry exports must be pure
  // functions of the values they serialize, so Render*/Dump* in
  // src/obs are sinks — but only there, and only those prefixes.
  FunctionDef def;
  def.qualified_name = "wym::obs::RenderRequestRecord";
  EXPECT_TRUE(IsTaintSink(def, "src/obs/event_log.cc"));
  EXPECT_FALSE(IsTaintSink(def, "src/data/csv.cc"));
  def.qualified_name = "wym::obs::FlightRecorder::DumpJson";
  EXPECT_TRUE(IsTaintSink(def, "src/obs/recorder.cc"));
  def.qualified_name = "wym::obs::WindowTracker::Tick";
  EXPECT_FALSE(IsTaintSink(def, "src/obs/window.cc"));
}

TEST(TaintTest, ClockSeedReachingServeRenderPathIsAFinding) {
  // A clock read leaking into the response-serialization path must be
  // flagged: the wire bytes would no longer be a pure function of the
  // Response value.
  SourceTree tree;
  tree.Add("src/serve/protocol.cc",
           "namespace wym::serve {\n"
           "long Stamp() {\n"
           "  return std::chrono::steady_clock::now()"
           ".time_since_epoch().count();\n"
           "}\n"
           "const char* RenderResponse(int r) { long t = Stamp(); "
           "(void)r; (void)t; return \"\"; }\n"
           "}\n");
  const Report report = RunTaintPass(tree);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].check, "taint-flow");
  EXPECT_NE(report.findings[0].message.find(
                "wym::serve::RenderResponse -> wym::serve::Stamp"),
            std::string::npos)
      << report.findings[0].message;
}

// ---------------------------------------------------------------------
// Findings / report model

TEST(ReportTest, ExitCodeContractStaleWins) {
  Report report;
  EXPECT_EQ(report.ExitCode(), 0);
  report.findings.push_back({"a.cc", 1, "layer-order", "m"});
  EXPECT_EQ(report.ExitCode(), 5);
  report.findings.push_back({"a.cc", 2, "stale-suppression", "m"});
  EXPECT_EQ(report.ExitCode(), 6);
}

TEST(ReportTest, FindingsSortByPathLineCheckMessage) {
  std::vector<lint::Finding> findings = {
      {"b.cc", 1, "x", "m"},
      {"a.cc", 9, "x", "m"},
      {"a.cc", 2, "z", "m"},
      {"a.cc", 2, "y", "m"},
  };
  SortFindings(&findings);
  EXPECT_EQ(findings[0].path, "a.cc");
  EXPECT_EQ(findings[0].check, "y");
  EXPECT_EQ(findings[1].check, "z");
  EXPECT_EQ(findings[2].line, 9);
  EXPECT_EQ(findings[3].path, "b.cc");
}

TEST(ReportTest, JsonIsByteIdenticalAcrossRunsAndParses) {
  const SourceTree tree = TaintFixture("");
  const std::string a = RenderJson(RunTaintPass(tree));
  const std::string b = RenderJson(RunTaintPass(tree));
  EXPECT_EQ(a, b);  // Byte-identical, not just equivalent.

  obs::JsonValue value;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(a, &value, &error)) << error;
  ASSERT_TRUE(value.IsObject());
  const obs::JsonValue* schema = value.Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "wym-analysis-report/v1");
  EXPECT_EQ(value.Find("pass")->string, "taint");
  EXPECT_EQ(value.Find("exit_code")->number, 5.0);
  const obs::JsonValue* findings = value.Find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_EQ(findings->array.size(), 1u);
  EXPECT_EQ(findings->array[0].Find("check")->string, "taint-flow");
  EXPECT_EQ(findings->array[0].Find("severity")->string, "error");
}

TEST(ReportTest, GraphJsonValidatesUnderObsJsonToo) {
  const SourceTree tree = LayeringFixture(/*suppressed=*/false);
  const std::string text = RenderJson(RunGraphPass(tree));
  obs::JsonValue value;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(text, &value, &error)) << error << "\n" << text;
  EXPECT_EQ(value.Find("pass")->string, "graph");
  EXPECT_EQ(value.Find("exit_code")->number, 5.0);
}

TEST(ReportTest, JsonEscapingCoversControlAndQuoteCharacters) {
  // The report's strings go through obs::AppendJsonString, which also
  // writes the surrounding quotes; compare what is between them.
  const auto escaped = [](const std::string& text) {
    std::string quoted;
    obs::AppendJsonString(text, &quoted);
    EXPECT_EQ(quoted.front(), '"');
    EXPECT_EQ(quoted.back(), '"');
    return quoted.substr(1, quoted.size() - 2);
  };
  EXPECT_EQ(escaped("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(escaped(std::string(1, '\x01')), "\\u0001");
  // Round-trip through the validating parser.
  obs::JsonValue value;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(
      "{\"k\": \"" + escaped("quote\" slash\\ nl\n") + "\"}", &value,
      &error))
      << error;
  EXPECT_EQ(value.Find("k")->string, "quote\" slash\\ nl\n");
}

TEST(ReportTest, SeverityPartitionsHygieneFromContractChecks) {
  EXPECT_EQ(SeverityOf("todo-issue"), Severity::kWarning);
  EXPECT_EQ(SeverityOf("layer-order"), Severity::kError);
  EXPECT_EQ(SeverityOf("taint-flow"), Severity::kError);
  EXPECT_EQ(SeverityOf("stale-suppression"), Severity::kError);
}

}  // namespace
}  // namespace wym::analysis
