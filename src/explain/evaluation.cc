#include "explain/evaluation.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "ml/metrics.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stats.h"

namespace wym::explain {

namespace internal {

core::ScoredUnitSet SubsetUnits(const core::Explanation& explanation,
                                const std::vector<size_t>& keep) {
  core::ScoredUnitSet set;
  set.units.reserve(keep.size());
  set.scores.reserve(keep.size());
  for (size_t u : keep) {
    set.units.push_back(explanation.units[u].unit);
    set.scores.push_back(explanation.units[u].relevance);
  }
  return set;
}

}  // namespace internal

double CumulativeImpactShare(const core::Explanation& explanation,
                             double fraction) {
  if (explanation.units.empty()) return 1.0;
  double total = 0.0;
  for (const auto& unit : explanation.units) {
    total += std::fabs(unit.impact);
  }
  if (total <= 0.0) return 1.0;

  const std::vector<size_t> order = explanation.RankByImpactMagnitude();
  const size_t keep = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(fraction * static_cast<double>(order.size()))));
  double cumulative = 0.0;
  for (size_t i = 0; i < std::min(keep, order.size()); ++i) {
    cumulative += std::fabs(explanation.units[order[i]].impact);
  }
  return cumulative / total;
}

std::vector<double> AverageConcisenessCurve(
    const std::vector<core::Explanation>& explanations,
    const std::vector<double>& fractions) {
  std::vector<double> curve;
  curve.reserve(fractions.size());
  for (double fraction : fractions) {
    std::vector<double> shares;
    shares.reserve(explanations.size());
    for (const auto& explanation : explanations) {
      if (explanation.units.empty()) continue;
      shares.push_back(CumulativeImpactShare(explanation, fraction));
    }
    curve.push_back(stats::Mean(shares));
  }
  return curve;
}

double PostHocAccuracyWym(const core::WymModel& model,
                          const data::Dataset& test, size_t top_v) {
  WYM_CHECK_GT(test.size(), 0u);
  size_t agree = 0;
  for (const auto& record : test.records) {
    const core::Explanation explanation = model.Explain(record);
    const std::vector<size_t> order = internal::RankTowardClass(
        explanation.units, &core::ExplainedUnit::impact,
        explanation.prediction);
    const std::vector<size_t> keep(
        order.begin(), order.begin() + std::min(top_v, order.size()));
    const double proba = explanation.units.empty()
                             ? explanation.probability
                             : model.PredictProbaFromUnits(
                                   internal::SubsetUnits(explanation, keep));
    const int subset_prediction = proba >= 0.5 ? 1 : 0;
    if (subset_prediction == explanation.prediction) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(test.size());
}

double PostHocAccuracyTokens(const core::Matcher& matcher,
                             const data::Dataset& test,
                             const TokenExplainFn& explain, size_t top_v) {
  WYM_CHECK_GT(test.size(), 0u);
  size_t agree = 0;
  for (const auto& record : test.records) {
    const int full_prediction = matcher.Predict(record);
    const TokenLevelExplanation explanation = explain(record);

    const std::vector<size_t> order = internal::RankTowardClass(
        explanation.weights, &TokenWeight::weight, full_prediction);

    std::vector<TokenKey> tokens;
    tokens.reserve(explanation.weights.size());
    for (const auto& tw : explanation.weights) tokens.push_back(tw.key);
    std::vector<bool> keep(tokens.size(), false);
    for (size_t i = 0; i < std::min(top_v, order.size()); ++i) {
      keep[order[i]] = true;
    }
    const data::EmRecord masked = MaskRecord(record, tokens, keep);
    if (matcher.Predict(masked) == full_prediction) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(test.size());
}

const char* RemovalStrategyName(RemovalStrategy strategy) {
  switch (strategy) {
    case RemovalStrategy::kMoRF:
      return "MoRF";
    case RemovalStrategy::kLeRF:
      return "LeRF";
    case RemovalStrategy::kRandom:
      return "Random";
  }
  return "?";
}

double F1AfterUnitRemoval(const core::WymModel& model,
                          const data::Dataset& test,
                          RemovalStrategy strategy, size_t k, uint64_t seed) {
  WYM_CHECK_GT(test.size(), 0u);
  Rng rng(seed);
  std::vector<int> truth, predicted;
  truth.reserve(test.size());
  predicted.reserve(test.size());
  for (const auto& record : test.records) {
    const core::Explanation explanation = model.Explain(record);
    std::vector<size_t> order;
    switch (strategy) {
      case RemovalStrategy::kMoRF:
      case RemovalStrategy::kLeRF:
        order = internal::RankTowardClass(
            explanation.units, &core::ExplainedUnit::impact, record.label);
        if (strategy == RemovalStrategy::kLeRF) {
          std::reverse(order.begin(), order.end());
        }
        break;
      case RemovalStrategy::kRandom: {
        order.resize(explanation.units.size());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.Shuffle(&order);
        break;
      }
    }
    // Keep everything after the first k ranked units.
    std::vector<size_t> keep(
        order.begin() + std::min(k, order.size()), order.end());
    const double proba =
        keep.empty()
            ? 0.0  // Nothing left to support a match.
            : model.PredictProbaFromUnits(
                  internal::SubsetUnits(explanation, keep));
    truth.push_back(record.label);
    predicted.push_back(proba >= 0.5 ? 1 : 0);
  }
  return ml::F1Score(truth, predicted);
}

std::vector<double> UnitLandmarkCorrelations(const core::WymModel& model,
                                             const LandmarkExplainer& landmark,
                                             const data::Dataset& sample) {
  std::vector<double> correlations;
  for (const auto& record : sample.records) {
    const core::Explanation wym_explanation = model.Explain(record);
    if (wym_explanation.units.size() < 3) continue;
    const TokenLevelExplanation lm = landmark.Explain(model, record);

    // Landmark weights keyed by (side, attribute, index-in-attribute).
    std::map<std::tuple<int, size_t, size_t>, double> token_weight;
    for (const auto& tw : lm.weights) {
      token_weight[{tw.key.side == core::Side::kLeft ? 0 : 1,
                    tw.key.attribute, tw.key.index}] = tw.weight;
    }

    // Convert the model's flat token positions to in-attribute indices.
    const core::TokenizedRecord tokenized = model.Prepare(record);
    auto in_attr_index = [](const core::TokenizedEntity& entity,
                            size_t flat) {
      size_t index = 0;
      for (size_t i = 0; i < flat; ++i) {
        if (entity.attribute_of[i] == entity.attribute_of[flat]) ++index;
      }
      return index;
    };

    std::vector<double> wym_scores, lm_scores;
    for (const auto& eu : wym_explanation.units) {
      double sum = 0.0;
      size_t found = 0;
      if (eu.unit.paired || eu.unit.unpaired_side == core::Side::kLeft) {
        auto it = token_weight.find(
            {0, eu.unit.left.attribute,
             in_attr_index(tokenized.left, eu.unit.left.position)});
        if (it != token_weight.end()) {
          sum += it->second;
          ++found;
        }
      }
      if (eu.unit.paired || eu.unit.unpaired_side == core::Side::kRight) {
        auto it = token_weight.find(
            {1, eu.unit.right.attribute,
             in_attr_index(tokenized.right, eu.unit.right.position)});
        if (it != token_weight.end()) {
          sum += it->second;
          ++found;
        }
      }
      if (found == 0) continue;
      wym_scores.push_back(eu.impact);
      lm_scores.push_back(sum / static_cast<double>(found));
    }
    if (wym_scores.size() < 3) continue;
    correlations.push_back(stats::Pearson(wym_scores, lm_scores));
  }
  return correlations;
}

}  // namespace wym::explain
