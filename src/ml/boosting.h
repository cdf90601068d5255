#ifndef WYM_ML_BOOSTING_H_
#define WYM_ML_BOOSTING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/classifier.h"
#include "ml/tree.h"

/// \file
/// Boosted pool members: discrete AdaBoost over decision stumps ("AB") and
/// gradient boosting with log-loss pseudo-residuals ("GBM").

namespace wym::ml {

/// Options for AdaBoostClassifier.
struct AdaBoostOptions {
  size_t n_estimators = 50;
  uint64_t seed = 0xADAB;
};

/// Discrete AdaBoost with depth-1 trees.
class AdaBoostClassifier : public Classifier {
 public:
  using Options = AdaBoostOptions;

  explicit AdaBoostClassifier(Options options = {});

  const char* name() const override { return "AB"; }
  void Fit(const la::Matrix& x, const std::vector<int>& y) override;
  double PredictProba(const std::vector<double>& row) const override;
  void SaveState(serde::Serializer* s) const override;
  bool LoadState(serde::Deserializer* d, size_t dim) override;

 private:
  /// Weighted ensemble score in (-inf, inf); positive = class 1.
  double Score(const std::vector<double>& row) const;

  Options options_;
  std::vector<RegressionTree> stumps_;
  std::vector<double> alphas_;
  double alpha_total_ = 0.0;
};

/// Options for GradientBoostingClassifier.
struct GradientBoostingOptions {
  size_t n_estimators = 60;
  double learning_rate = 0.1;
  TreeOptions tree = {.max_depth = 3,
                      .min_samples_leaf = 2,
                      .min_samples_split = 4,
                      .max_features = 0,
                      .random_thresholds = false};
  uint64_t seed = 0x96b0057;
};

/// Gradient boosting on the binomial deviance.
class GradientBoostingClassifier : public Classifier {
 public:
  using Options = GradientBoostingOptions;

  explicit GradientBoostingClassifier(Options options = {});

  const char* name() const override { return "GBM"; }
  void Fit(const la::Matrix& x, const std::vector<int>& y) override;
  double PredictProba(const std::vector<double>& row) const override;
  void SaveState(serde::Serializer* s) const override;
  bool LoadState(serde::Deserializer* d, size_t dim) override;

 private:
  double Logit(const std::vector<double>& row) const;

  Options options_;
  double base_logit_ = 0.0;
  std::vector<RegressionTree> trees_;
};

}  // namespace wym::ml

#endif  // WYM_ML_BOOSTING_H_
