#include "explain/lime.h"

#include <cmath>
#include <numeric>

#include "la/matrix.h"
#include "util/random.h"

namespace wym::explain {

namespace {

/// Weighted ridge regression beta = (X'WX + ridge I)^-1 X'W y.
/// X is n x d (with an implicit intercept handled by centering y).
std::vector<double> WeightedRidge(const std::vector<std::vector<int>>& masks,
                                  const std::vector<double>& y,
                                  const std::vector<double>& weights,
                                  double ridge) {
  const size_t n = masks.size();
  const size_t d = n == 0 ? 0 : masks[0].size();
  if (d == 0) return {};

  // Weighted means for centering.
  double w_total = 0.0, y_mean = 0.0;
  std::vector<double> x_mean(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    w_total += weights[i];
    y_mean += weights[i] * y[i];
    for (size_t j = 0; j < d; ++j) x_mean[j] += weights[i] * masks[i][j];
  }
  if (w_total <= 0.0) return std::vector<double>(d, 0.0);
  y_mean /= w_total;
  for (double& m : x_mean) m /= w_total;

  la::Matrix xtx(d, d);
  std::vector<double> xty(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double w = weights[i];
    const double dy = y[i] - y_mean;
    for (size_t a = 0; a < d; ++a) {
      const double da = masks[i][a] - x_mean[a];
      if (da == 0.0) continue;
      xty[a] += w * da * dy;
      for (size_t b = a; b < d; ++b) {
        xtx.At(a, b) += w * da * (masks[i][b] - x_mean[b]);
      }
    }
  }
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = 0; b < a; ++b) xtx.At(a, b) = xtx.At(b, a);
  }
  return la::SolveLinearSystem(std::move(xtx), std::move(xty), ridge);
}

}  // namespace

namespace internal {

std::vector<double> FitPerturbationModel(const core::Matcher& matcher,
                                         const data::EmRecord& record,
                                         const std::vector<TokenKey>& tokens,
                                         const std::vector<size_t>& droppable,
                                         double base_probability,
                                         const LimeOptions& options) {
  if (droppable.empty()) return {};
  Rng rng(options.seed);
  std::vector<std::vector<int>> masks;
  std::vector<double> responses;
  std::vector<double> weights;
  masks.reserve(options.num_samples + 1);

  // The unperturbed sample anchors the regression.
  masks.emplace_back(droppable.size(), 1);
  responses.push_back(base_probability);
  weights.push_back(1.0);

  for (size_t s = 0; s < options.num_samples; ++s) {
    std::vector<int> mask(droppable.size(), 1);
    std::vector<bool> keep(tokens.size(), true);
    size_t dropped = 0;
    for (size_t i = 0; i < droppable.size(); ++i) {
      if (rng.Bernoulli(options.dropout)) {
        mask[i] = 0;
        keep[droppable[i]] = false;
        ++dropped;
      }
    }
    const data::EmRecord perturbed = MaskRecord(record, tokens, keep);
    responses.push_back(matcher.PredictProba(perturbed));
    const double distance =
        static_cast<double>(dropped) / static_cast<double>(droppable.size());
    weights.push_back(std::exp(-(distance * distance) /
                               (options.kernel_width * options.kernel_width)));
    masks.push_back(std::move(mask));
  }
  return WeightedRidge(masks, responses, weights, options.ridge);
}

}  // namespace internal

LimeExplainer::LimeExplainer(Options options) : options_(options) {}

TokenLevelExplanation LimeExplainer::Explain(
    const core::Matcher& matcher, const data::EmRecord& record) const {
  TokenLevelExplanation out;
  out.base_probability = matcher.PredictProba(record);

  const std::vector<TokenKey> tokens = EnumerateTokens(record, tokenizer_);
  std::vector<size_t> every(tokens.size());
  std::iota(every.begin(), every.end(), size_t{0});
  const std::vector<double> beta = internal::FitPerturbationModel(
      matcher, record, tokens, every, out.base_probability, options_);
  out.weights.reserve(tokens.size());
  for (size_t t = 0; t < tokens.size(); ++t) {
    out.weights.push_back({tokens[t], beta[t]});
  }
  return out;
}

}  // namespace wym::explain
