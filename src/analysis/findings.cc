#include "analysis/findings.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "obs/json.h"

namespace wym::analysis {

Severity SeverityOf(const std::string& check) {
  if (check == "todo-issue") return Severity::kWarning;
  return Severity::kError;
}

const char* SeverityName(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

int Report::StaleCount() const {
  int count = 0;
  for (const lint::Finding& f : findings) {
    if (f.check == "stale-suppression") ++count;
  }
  return count;
}

int Report::ExitCode() const {
  if (StaleCount() > 0) return 6;
  if (!findings.empty()) return 5;
  return 0;
}

void SortFindings(std::vector<lint::Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const lint::Finding& a, const lint::Finding& b) {
              return std::tie(a.path, a.line, a.check, a.message) <
                     std::tie(b.path, b.line, b.check, b.message);
            });
}

std::string RenderText(const Report& report) {
  std::ostringstream os;
  for (const lint::Finding& f : report.findings) {
    os << lint::FormatFinding(f) << "\n";
  }
  if (report.findings.empty()) {
    os << "wym-lint " << report.pass << ": clean (" << report.files_scanned
       << " files, " << report.suppressions_honored
       << " suppressions honored)\n";
  } else {
    os << "wym-lint " << report.pass << ": " << report.findings.size()
       << " finding(s) in " << report.files_scanned << " file(s), "
       << report.suppressions_honored << " suppression(s) honored, "
       << report.StaleCount() << " stale\n";
  }
  return os.str();
}

std::string RenderJson(const Report& report) {
  std::string out = "{\n  \"schema\": \"wym-analysis-report/v1\",\n";
  out += "  \"pass\": ";
  obs::AppendJsonString(report.pass, &out);
  out += ",\n  \"files_scanned\": ";
  obs::AppendJsonInt(report.files_scanned, &out);
  out += ",\n  \"suppressions_honored\": ";
  obs::AppendJsonInt(report.suppressions_honored, &out);
  out += ",\n  \"stale_suppressions\": ";
  obs::AppendJsonInt(report.StaleCount(), &out);
  out += ",\n  \"exit_code\": ";
  obs::AppendJsonInt(report.ExitCode(), &out);
  out += ",\n  \"findings\": [";
  for (size_t i = 0; i < report.findings.size(); ++i) {
    const lint::Finding& f = report.findings[i];
    out += i == 0 ? "\n    {\"path\": " : ",\n    {\"path\": ";
    obs::AppendJsonString(f.path, &out);
    out += ", \"line\": ";
    obs::AppendJsonInt(f.line, &out);
    out += ", \"check\": ";
    obs::AppendJsonString(f.check, &out);
    out += ", \"severity\": \"";
    out += SeverityName(SeverityOf(f.check));
    out += "\", \"message\": ";
    obs::AppendJsonString(f.message, &out);
    out += '}';
  }
  out += report.findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace wym::analysis
