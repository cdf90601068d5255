#ifndef WYM_ML_LDA_H_
#define WYM_ML_LDA_H_

#include <vector>

#include "ml/classifier.h"

/// \file
/// Linear Discriminant Analysis with a regularized pooled covariance:
/// w = (S + ridge*I)^-1 (mu1 - mu0); the intercept places the decision
/// boundary according to class priors. Exposes exact linear coefficients.

namespace wym::ml {

/// Options for LinearDiscriminant.
struct LinearDiscriminantOptions {
  /// Ridge added to the pooled covariance diagonal.
  double ridge = 1e-3;
};

/// Binary Gaussian LDA classifier.
class LinearDiscriminant : public Classifier {
 public:
  using Options = LinearDiscriminantOptions;

  explicit LinearDiscriminant(Options options = {});

  const char* name() const override { return "LDA"; }
  void Fit(const la::Matrix& x, const std::vector<int>& y) override;
  double PredictProba(const std::vector<double>& row) const override;
  std::vector<double> SignedImportance(const la::Matrix&) const override {
    return weights_;
  }
  bool IsLinear() const override { return true; }
  void SaveState(serde::Serializer* s) const override;
  bool LoadState(serde::Deserializer* d, size_t dim) override;

 private:
  Options options_;
  std::vector<double> weights_;
  double bias_ = 0.0;
};

}  // namespace wym::ml

#endif  // WYM_ML_LDA_H_
