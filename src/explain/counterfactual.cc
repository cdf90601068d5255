#include "explain/counterfactual.h"

#include <algorithm>

#include "explain/evaluation.h"

namespace wym::explain {

Counterfactual FindCounterfactual(const core::WymModel& model,
                                  const core::Explanation& explanation,
                                  CounterfactualOptions options) {
  Counterfactual out;
  if (explanation.units.empty()) return out;
  const int original = explanation.prediction;

  // Units ranked by how strongly they support the current prediction.
  const std::vector<size_t> order = internal::RankTowardClass(
      explanation.units, &core::ExplainedUnit::impact, original);
  for (size_t step = 0;
       step < std::min(options.max_removals, order.size()); ++step) {
    out.removed_units.push_back(order[step]);
    // The units not removed yet, in explanation order.
    std::vector<size_t> remaining(order.begin() + step + 1, order.end());
    std::sort(remaining.begin(), remaining.end());
    const double proba = remaining.empty()
                             ? 0.0
                             : model.PredictProbaFromUnits(
                                   internal::SubsetUnits(explanation,
                                                         remaining));
    const int prediction = proba >= 0.5 ? 1 : 0;
    if (prediction != original) {
      out.found = true;
      out.flipped_prediction = prediction;
      out.flipped_probability = proba;
      return out;
    }
  }
  out.removed_units.clear();  // Budget exhausted without a flip.
  return out;
}

}  // namespace wym::explain
