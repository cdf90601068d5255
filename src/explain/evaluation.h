#ifndef WYM_EXPLAIN_EVALUATION_H_
#define WYM_EXPLAIN_EVALUATION_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "core/wym.h"
#include "explain/landmark.h"
#include "explain/token_explanation.h"

/// \file
/// Quantitative explanation-quality measures of paper §5.2:
///  - conciseness (Pareto cumulative-impact curves, Figure 6),
///  - sufficiency via post-hoc accuracy (Eq. 4, Figure 7),
///  - MoRF / LeRF / Random perturbation curves (Figure 8),
///  - Pearson correlation with Landmark explanations (Figure 9).

namespace wym::explain {

namespace internal {

/// Indices of `items` ranked toward class `label` by their `score`
/// member: descending for label 1, ascending for label 0, ties in index
/// order. The one ranking behind post-hoc accuracy, MoRF/LeRF removal and
/// the counterfactual search, over unit impacts and token weights alike.
template <typename Item>
std::vector<size_t> RankTowardClass(const std::vector<Item>& items,
                                    double Item::*score, int label) {
  std::vector<size_t> order(items.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double sa = items[a].*score;
    const double sb = items[b].*score;
    return label == 1 ? sa > sb : sa < sb;
  });
  return order;
}

/// The scored set of the units of `explanation` at indices `keep`, in
/// `keep`'s order (the feature means sum in it).
core::ScoredUnitSet SubsetUnits(const core::Explanation& explanation,
                                const std::vector<size_t>& keep);

}  // namespace internal

/// Fraction of the total |impact| carried by the top `fraction` of a
/// record's decision units (units sorted by |impact| descending).
double CumulativeImpactShare(const core::Explanation& explanation,
                             double fraction);

/// Figure 6: the average of CumulativeImpactShare over explanations at
/// each requested unit fraction.
std::vector<double> AverageConcisenessCurve(
    const std::vector<core::Explanation>& explanations,
    const std::vector<double>& fractions);

/// Eq. 4 / Figure 7, WYM as its own explainer: the prediction made from
/// only the top `top_v` impact units is compared with the full-input
/// prediction; returns the agreement rate over the dataset.
double PostHocAccuracyWym(const core::WymModel& model,
                          const data::Dataset& test, size_t top_v);

/// A post-hoc explanation provider for a black-box matcher.
using TokenExplainFn =
    std::function<TokenLevelExplanation(const data::EmRecord&)>;

/// Eq. 4 / Figure 7 for token-level explainers (WYM+LIME, DITTO+LIME,
/// DITTO+LEMON-style single-token granularity): keeps the `top_v` tokens
/// ranked toward the prediction, rebuilds the record, re-predicts and
/// compares with the full-input prediction.
double PostHocAccuracyTokens(const core::Matcher& matcher,
                             const data::Dataset& test,
                             const TokenExplainFn& explain, size_t top_v);

/// Unit-removal strategies of Figure 8.
enum class RemovalStrategy { kMoRF, kLeRF, kRandom };

/// Printable strategy name.
const char* RemovalStrategyName(RemovalStrategy strategy);

/// Figure 8: F1 of the model on `test` after removing `k` decision units
/// per record. MoRF removes the units contributing most to the record's
/// ground-truth class (highest impact for matches, lowest for
/// non-matches); LeRF the least; kRandom draws uniformly with `seed`.
double F1AfterUnitRemoval(const core::WymModel& model,
                          const data::Dataset& test,
                          RemovalStrategy strategy, size_t k, uint64_t seed);

/// Figure 9: per-record Pearson correlations between WYM's unit impacts
/// and Landmark's token attributions merged to unit granularity
/// (token weights of a paired unit are averaged). Records with fewer
/// than 3 units are skipped.
std::vector<double> UnitLandmarkCorrelations(const core::WymModel& model,
                                             const LandmarkExplainer& landmark,
                                             const data::Dataset& sample);

}  // namespace wym::explain

#endif  // WYM_EXPLAIN_EVALUATION_H_
