#ifndef WYM_ANALYSIS_FINDINGS_H_
#define WYM_ANALYSIS_FINDINGS_H_

#include <string>
#include <vector>

#include "util/source_scan.h"

/// \file
/// The findings model shared by every `wym_lint` pass (token lint,
/// include-graph, taint). One pass produces one `Report`: its findings
/// in a deterministic order, the suppression accounting, and a stale
/// count. The drivers render a report as text or as schema-stable JSON
/// (`wym-analysis-report/v1`, parseable by `obs::json`) and map it to
/// the shared exit-code contract:
///
///   0  clean
///   5  unsuppressed findings
///   6  stale suppressions (a marker that excuses nothing)
///
/// Stale wins over findings: a stale marker means the suppression
/// inventory itself is wrong, which gates harder than any one finding.

namespace wym::analysis {

/// Severity attached to a check id in the machine-readable output.
/// Every finding fails the gate regardless; severity tells a consumer
/// what kind of contract broke.
enum class Severity { kError, kWarning };

/// Severity for `check`: hygiene checks (todo-issue) are warnings,
/// everything else — determinism, safety, layering, taint, suppression
/// accounting — is an error.
Severity SeverityOf(const std::string& check);

const char* SeverityName(Severity severity);

/// One pass's complete result.
struct Report {
  /// Pass id: "lint", "graph" or "taint".
  std::string pass;
  std::vector<lint::Finding> findings;
  int files_scanned = 0;
  int suppressions_honored = 0;

  /// Number of findings with check == "stale-suppression".
  int StaleCount() const;
  /// 0 / 5 / 6 per the contract above.
  int ExitCode() const;
};

/// Sorts findings by (path, line, check, message) — the one order every
/// renderer uses, so two runs over the same tree are byte-identical.
void SortFindings(std::vector<lint::Finding>* findings);

/// Text rendering: one `path:line: [check] message` per finding plus
/// the one-line summary the ctest gates grep for.
std::string RenderText(const Report& report);

/// JSON rendering (schema `wym-analysis-report/v1`). Key order, spacing
/// and field set are fixed; the output contains no timestamps, floats
/// or environment-dependent values, so repeated runs over the same tree
/// produce byte-identical bytes at any WYM_THREADS / WYM_SIMD setting.
std::string RenderJson(const Report& report);

}  // namespace wym::analysis

#endif  // WYM_ANALYSIS_FINDINGS_H_
