#include "explain/report.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/json.h"
#include "util/string_util.h"

namespace wym::explain {

namespace {

const char* PhaseName(core::UnitPhase phase) {
  switch (phase) {
    case core::UnitPhase::kIntraAttribute:
      return "intra";
    case core::UnitPhase::kInterAttribute:
      return "inter";
    case core::UnitPhase::kOneToMany:
      return "one-to-many";
    case core::UnitPhase::kUnpaired:
      return "unpaired";
  }
  return "?";
}

}  // namespace

std::string RenderExplanation(const core::Explanation& explanation,
                              ReportOptions options) {
  std::ostringstream out;
  out << "prediction: " << (explanation.prediction == 1 ? "MATCH" : "NO MATCH")
      << " (p=" << strings::FormatDouble(explanation.probability, 3) << ")\n";
  if (explanation.units.empty()) {
    out << "  (no decision units)\n";
    return out.str();
  }

  // Order: impact descending, so match evidence reads first (Figure 3).
  std::vector<size_t> order(explanation.units.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return explanation.units[a].impact > explanation.units[b].impact;
  });
  if (options.max_units > 0 && order.size() > options.max_units) {
    // Keep the strongest by magnitude, preserving the signed ordering.
    std::vector<size_t> by_magnitude = explanation.RankByImpactMagnitude();
    by_magnitude.resize(options.max_units);
    std::vector<size_t> kept;
    for (size_t index : order) {
      if (std::find(by_magnitude.begin(), by_magnitude.end(), index) !=
          by_magnitude.end()) {
        kept.push_back(index);
      }
    }
    order = std::move(kept);
  }

  double max_impact = 1e-9;
  size_t label_width = 0;
  for (size_t index : order) {
    max_impact =
        std::max(max_impact, std::fabs(explanation.units[index].impact));
    label_width =
        std::max(label_width, explanation.units[index].unit.Label().size());
  }

  const size_t half = std::max<size_t>(4, options.bar_width / 2);
  for (size_t index : order) {
    const auto& unit = explanation.units[index];
    const std::string label = unit.unit.Label();
    out << "  " << label
        << std::string(label_width - label.size(), ' ');
    if (options.show_relevance) {
      const std::string relevance =
          strings::FormatDouble(unit.relevance, 2);
      out << ' ' << std::string(6 - std::min<size_t>(6, relevance.size()),
                                ' ')
          << relevance;
    }
    const size_t bar = static_cast<size_t>(
        std::lround(std::fabs(unit.impact) / max_impact *
                    static_cast<double>(half)));
    out << " |";
    if (unit.impact < 0) {
      out << std::string(half - bar, ' ') << std::string(bar, '#')
          << '|' << std::string(half, ' ');
    } else {
      out << std::string(half, ' ') << '|' << std::string(bar, '#')
          << std::string(half - bar, ' ');
    }
    out << "| " << (unit.impact >= 0 ? "+" : "")
        << strings::FormatDouble(unit.impact, 3) << "\n";
  }
  return out.str();
}

std::string ExplanationToJson(const core::Explanation& explanation) {
  std::string out = "{\"prediction\":";
  out += std::to_string(explanation.prediction);
  out += ",\"probability\":";
  obs::AppendJsonFixed(explanation.probability, 6, &out);
  out += ",\"units\":[";
  for (size_t u = 0; u < explanation.units.size(); ++u) {
    const auto& eu = explanation.units[u];
    if (u > 0) out += ',';
    out += "{\"label\":";
    obs::AppendJsonString(eu.unit.Label(), &out);
    out += eu.unit.paired ? ",\"paired\":true" : ",\"paired\":false";
    out += ",\"phase\":\"";
    out += PhaseName(eu.unit.phase);
    out += "\",\"attribute\":";
    out += std::to_string(eu.unit.AnchorAttribute());
    if (eu.unit.paired) {
      out += ",\"left\":";
      obs::AppendJsonString(eu.unit.left.token, &out);
      out += ",\"right\":";
      obs::AppendJsonString(eu.unit.right.token, &out);
    } else {
      out += ",\"token\":";
      obs::AppendJsonString(eu.unit.UnpairedToken().token, &out);
      out += eu.unit.unpaired_side == core::Side::kLeft
                 ? ",\"side\":\"left\""
                 : ",\"side\":\"right\"";
    }
    out += ",\"relevance\":";
    obs::AppendJsonFixed(eu.relevance, 6, &out);
    out += ",\"impact\":";
    obs::AppendJsonFixed(eu.impact, 6, &out);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace wym::explain
