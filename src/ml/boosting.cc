#include "ml/boosting.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/random.h"

namespace wym::ml {

namespace {

double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

}  // namespace

AdaBoostClassifier::AdaBoostClassifier(Options options) : options_(options) {}

void AdaBoostClassifier::Fit(const la::Matrix& x, const std::vector<int>& y) {
  WYM_CHECK_EQ(x.rows(), y.size());
  WYM_CHECK_GT(x.rows(), 0u);
  const size_t n = x.rows();

  std::vector<double> weights(n, 1.0 / static_cast<double>(n));
  std::vector<double> targets(y.begin(), y.end());
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;

  TreeOptions stump_options;
  stump_options.max_depth = 1;
  stump_options.min_samples_leaf = 1;
  stump_options.min_samples_split = 2;

  Rng rng(options_.seed);
  const PresortedFeatures presorted(x);
  stumps_.clear();
  alphas_.clear();
  alpha_total_ = 0.0;

  for (size_t t = 0; t < options_.n_estimators; ++t) {
    RegressionTree stump(stump_options);
    stump.Fit(x, targets, weights, all, &rng, &presorted);

    // Weighted error of the hard stump decision.
    double error = 0.0;
    std::vector<int> predicted(n);
    for (size_t i = 0; i < n; ++i) {
      predicted[i] = stump.Predict(x.Row(i)) >= 0.5 ? 1 : 0;
      if (predicted[i] != y[i]) error += weights[i];
    }
    error = std::clamp(error, 1e-10, 1.0 - 1e-10);
    if (error >= 0.5 && t > 0) break;  // No better than chance; stop.

    const double alpha = 0.5 * std::log((1.0 - error) / error);
    stumps_.push_back(std::move(stump));
    alphas_.push_back(alpha);
    alpha_total_ += std::fabs(alpha);

    // Reweight: boost the misclassified samples.
    double z = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double sign = (predicted[i] == y[i]) ? -1.0 : 1.0;
      weights[i] *= std::exp(alpha * sign);
      z += weights[i];
    }
    WYM_CHECK_GT(z, 0.0);
    for (double& w : weights) w /= z;
  }
}

double AdaBoostClassifier::Score(const std::vector<double>& row) const {
  WYM_CHECK(!stumps_.empty()) << "AdaBoost used before Fit";
  double score = 0.0;
  for (size_t t = 0; t < stumps_.size(); ++t) {
    const double vote = stumps_[t].Predict(row) >= 0.5 ? 1.0 : -1.0;
    score += alphas_[t] * vote;
  }
  return score;
}

double AdaBoostClassifier::PredictProba(const std::vector<double>& row) const {
  const double normalizer = alpha_total_ > 0.0 ? alpha_total_ : 1.0;
  return Sigmoid(4.0 * Score(row) / normalizer);
}

GradientBoostingClassifier::GradientBoostingClassifier(Options options)
    : options_(options) {}

void GradientBoostingClassifier::Fit(const la::Matrix& x,
                                     const std::vector<int>& y) {
  WYM_CHECK_EQ(x.rows(), y.size());
  WYM_CHECK_GT(x.rows(), 0u);
  const size_t n = x.rows();

  double positive = 0.0;
  for (int label : y) positive += label;
  const double prior = std::clamp(positive / static_cast<double>(n), 1e-4,
                                  1.0 - 1e-4);
  base_logit_ = std::log(prior / (1.0 - prior));

  std::vector<double> logits(n, base_logit_);
  std::vector<double> residuals(n);
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;

  Rng rng(options_.seed);
  const PresortedFeatures presorted(x);
  trees_.clear();
  trees_.reserve(options_.n_estimators);
  for (size_t t = 0; t < options_.n_estimators; ++t) {
    for (size_t i = 0; i < n; ++i) {
      residuals[i] = static_cast<double>(y[i]) - Sigmoid(logits[i]);
    }
    RegressionTree tree(options_.tree);
    tree.Fit(x, residuals, /*weights=*/{}, all, &rng, &presorted);
    for (size_t i = 0; i < n; ++i) {
      // 4x converts the mean-residual leaf value to an approximate Newton
      // step (residual variance <= 1/4 for Bernoulli).
      logits[i] += options_.learning_rate * 4.0 * tree.Predict(x.Row(i));
    }
    trees_.push_back(std::move(tree));
  }
}

double GradientBoostingClassifier::Logit(const std::vector<double>& row) const {
  WYM_CHECK(!trees_.empty()) << "GBM used before Fit";
  double logit = base_logit_;
  for (const auto& tree : trees_) {
    logit += options_.learning_rate * 4.0 * tree.Predict(row);
  }
  return logit;
}

double GradientBoostingClassifier::PredictProba(
    const std::vector<double>& row) const {
  return Sigmoid(Logit(row));
}

void AdaBoostClassifier::SaveState(serde::Serializer* s) const {
  s->Tag("adaboost/v1");
  s->U64(stumps_.size());
  for (const RegressionTree& stump : stumps_) stump.Save(s);
  s->VecF64(alphas_);
  s->F64(alpha_total_);
}

bool AdaBoostClassifier::LoadState(serde::Deserializer* d, size_t dim) {
  if (!d->Tag("adaboost/v1")) return false;
  const uint64_t count = d->U64();
  if (!d->ok() || count > 4096) return false;
  stumps_.assign(count, RegressionTree(TreeOptions{}));
  for (RegressionTree& stump : stumps_) {
    if (!stump.Load(d, dim)) return false;
  }
  alphas_ = d->VecF64();
  alpha_total_ = d->F64();
  return d->ok() && alphas_.size() == stumps_.size();
}

void GradientBoostingClassifier::SaveState(serde::Serializer* s) const {
  s->Tag("gbm/v1");
  s->F64(options_.learning_rate);
  s->F64(base_logit_);
  s->U64(trees_.size());
  for (const RegressionTree& tree : trees_) tree.Save(s);
}

bool GradientBoostingClassifier::LoadState(serde::Deserializer* d,
                                           size_t dim) {
  if (!d->Tag("gbm/v1")) return false;
  options_.learning_rate = d->F64();
  base_logit_ = d->F64();
  const uint64_t count = d->U64();
  if (!d->ok() || count > 4096) return false;
  trees_.assign(count, RegressionTree(options_.tree));
  for (RegressionTree& tree : trees_) {
    if (!tree.Load(d, dim)) return false;
  }
  return d->ok();
}

}  // namespace wym::ml
