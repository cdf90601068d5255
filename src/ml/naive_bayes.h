#ifndef WYM_ML_NAIVE_BAYES_H_
#define WYM_ML_NAIVE_BAYES_H_

#include <vector>

#include "ml/classifier.h"

/// \file
/// Gaussian Naive Bayes: per-class per-feature normal likelihoods with
/// variance smoothing, matching scikit-learn's GaussianNB used by the
/// reference implementation's classifier pool.

namespace wym::ml {

/// Options for GaussianNaiveBayes.
struct GaussianNaiveBayesOptions {
  /// Added to every variance, as a fraction of the largest feature
  /// variance (scikit-learn's var_smoothing idea).
  double var_smoothing = 1e-9;
};

/// Gaussian NB binary classifier.
class GaussianNaiveBayes : public Classifier {
 public:
  using Options = GaussianNaiveBayesOptions;

  explicit GaussianNaiveBayes(Options options = {});

  const char* name() const override { return "NB"; }
  void Fit(const la::Matrix& x, const std::vector<int>& y) override;
  double PredictProba(const std::vector<double>& row) const override;
  void SaveState(serde::Serializer* s) const override;
  bool LoadState(serde::Deserializer* d, size_t dim) override;

 private:
  Options options_;
  std::vector<double> mean_[2];
  std::vector<double> var_[2];
  double log_prior_[2] = {0.0, 0.0};
};

}  // namespace wym::ml

#endif  // WYM_ML_NAIVE_BAYES_H_
