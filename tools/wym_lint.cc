// wym_lint: the project's static analyzer (see DESIGN.md "Correctness
// tooling" and "Static analysis v2").
//
//   wym_lint [lint] [<repo-root>]    token-level checks per file
//   wym_lint graph [<repo-root>]     include-graph layering + cycles
//   wym_lint taint [<repo-root>]     determinism taint (seeds -> sinks)
//   wym_lint lint --files <f> [f...] token checks on explicit files
//   wym_lint --list-checks           print the check catalog
//
// Every pass accepts `--format=text` (default) or `--format=json`
// (schema wym-analysis-report/v1, byte-identical across runs). The
// scanned tree is src/ tools/ tests/ bench/ examples/ under the root
// (default: the current directory). Exit codes are shared by all
// passes and are part of the CI contract:
//
//   0  clean
//   2  usage / IO error
//   5  unsuppressed findings
//   6  stale suppressions (a marker that excuses nothing)
//
// ctest runs all three passes over the full tree, so a banned pattern,
// an upward include or a nondeterministic serialization path fails the
// build gate, not a code review.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/findings.h"
#include "analysis/include_graph.h"
#include "analysis/source_model.h"
#include "analysis/taint.h"
#include "util/io.h"
#include "util/source_scan.h"

namespace fs = std::filesystem;

namespace {

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

// Forward-slashed path of `path` relative to `root` (or verbatim when it
// is not under root). Check scoping keys off this.
std::string RelativePath(const fs::path& path, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(path, root, ec);
  return (ec || rel.empty()) ? path.generic_string() : rel.generic_string();
}

int Usage() {
  std::cerr
      << "usage: wym_lint [lint|graph|taint] [<repo-root>]"
         " [--format=text|json]\n"
         "       wym_lint lint --files <file> [file...] [--format=...]\n"
         "       wym_lint --list-checks\n";
  return 2;
}

/// Collects the scan set under `root` in sorted order (directory
/// iteration order is filesystem-dependent; the output must not be).
std::vector<fs::path> CollectFiles(const fs::path& root) {
  std::vector<fs::path> files;
  for (const char* dir : {"src", "tools", "tests", "bench", "examples"}) {
    const fs::path sub = root / dir;
    if (!fs::is_directory(sub)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(sub)) {
      if (entry.is_regular_file() && IsSourceFile(entry.path())) {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Token lint over explicit (path, text) pairs.
wym::analysis::Report RunLintPass(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  wym::analysis::Report report;
  report.pass = "lint";
  wym::lint::ScanStats stats;
  for (const auto& [path, text] : sources) {
    ++report.files_scanned;
    std::vector<wym::lint::Finding> findings =
        wym::lint::ScanSource(path, text, &stats);
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(findings.begin()),
                           std::make_move_iterator(findings.end()));
  }
  report.suppressions_honored = stats.suppressions_honored;
  wym::analysis::SortFindings(&report.findings);
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);

  if (!args.empty() && args[0] == "--list-checks") {
    for (const std::string& name : wym::lint::AllCheckNames()) {
      std::cout << name << "\n";
    }
    return 0;
  }

  // Subcommand (defaults to lint so `wym_lint <root>` keeps working).
  std::string pass = "lint";
  if (!args.empty() &&
      (args[0] == "lint" || args[0] == "graph" || args[0] == "taint")) {
    pass = args[0];
    args.erase(args.begin());
  }

  bool json = false;
  bool explicit_files = false;
  std::vector<std::string> positional;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--format=json") {
      json = true;
    } else if (args[i] == "--format=text") {
      json = false;
    } else if (args[i] == "--files") {
      explicit_files = true;
    } else if (!args[i].empty() && args[i][0] == '-') {
      std::cerr << "wym-lint: unknown option: " << args[i] << "\n";
      return Usage();
    } else {
      positional.push_back(args[i]);
    }
  }

  fs::path root = fs::current_path();
  std::vector<fs::path> files;
  if (explicit_files) {
    if (pass != "lint") {
      std::cerr << "wym-lint: --files is only supported by the lint pass"
                   " (graph/taint need the whole tree)\n";
      return Usage();
    }
    for (const std::string& arg : positional) files.emplace_back(arg);
    if (files.empty()) return Usage();
  } else {
    if (positional.size() > 1) return Usage();
    if (!positional.empty()) root = positional[0];
    if (!fs::is_directory(root)) {
      std::cerr << "wym-lint: not a directory: " << root << "\n";
      return 2;
    }
    files = CollectFiles(root);
  }

  std::vector<std::pair<std::string, std::string>> sources;
  sources.reserve(files.size());
  for (const fs::path& file : files) {
    std::string text;
    if (!wym::io::ReadFileToString(file.string(), &text).ok()) {
      std::cerr << "wym-lint: cannot read " << file << "\n";
      return 2;
    }
    sources.emplace_back(RelativePath(file, root), std::move(text));
  }

  wym::analysis::Report report;
  if (pass == "lint") {
    report = RunLintPass(sources);
  } else {
    wym::analysis::SourceTree tree;
    for (auto& [path, text] : sources) tree.Add(path, text);
    report = pass == "graph" ? wym::analysis::RunGraphPass(tree)
                             : wym::analysis::RunTaintPass(tree);
  }

  std::cout << (json ? wym::analysis::RenderJson(report)
                     : wym::analysis::RenderText(report));
  return report.ExitCode();
}
