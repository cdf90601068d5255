#ifndef WYM_ML_LINEAR_H_
#define WYM_ML_LINEAR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/classifier.h"

/// \file
/// Linear pool members: logistic regression (LR) and a linear soft-margin
/// SVM. Both expose exact coefficients, which the explainable matcher's
/// inverse transformation prefers (paper §4.3).

namespace wym::ml {

/// Options for LogisticRegression.
struct LogisticRegressionOptions {
  size_t iterations = 300;
  double learning_rate = 0.5;
  double l2 = 1e-3;
};

/// L2-regularized logistic regression trained with full-batch gradient
/// descent. Expects standardized features.
class LogisticRegression : public Classifier {
 public:
  using Options = LogisticRegressionOptions;

  explicit LogisticRegression(Options options = {});

  const char* name() const override { return "LR"; }
  void Fit(const la::Matrix& x, const std::vector<int>& y) override;
  double PredictProba(const std::vector<double>& row) const override;
  std::vector<double> SignedImportance(const la::Matrix&) const override {
    return weights_;
  }
  bool IsLinear() const override { return true; }
  void SaveState(serde::Serializer* s) const override;
  bool LoadState(serde::Deserializer* d, size_t dim) override;

  double intercept() const { return bias_; }

 private:
  Options options_;
  std::vector<double> weights_;
  double bias_ = 0.0;
};

/// Options for LinearSvm.
struct LinearSvmOptions {
  size_t epochs = 60;
  double lambda = 1e-3;
  uint64_t seed = 0x57a9;
};

/// Linear SVM with hinge loss and L2 regularization, trained with SGD
/// (Pegasos-style). Probabilities come from a logistic link on the margin.
class LinearSvm : public Classifier {
 public:
  using Options = LinearSvmOptions;

  explicit LinearSvm(Options options = {});

  const char* name() const override { return "SVM"; }
  void Fit(const la::Matrix& x, const std::vector<int>& y) override;
  double PredictProba(const std::vector<double>& row) const override;
  std::vector<double> SignedImportance(const la::Matrix&) const override {
    return weights_;
  }
  bool IsLinear() const override { return true; }
  void SaveState(serde::Serializer* s) const override;
  bool LoadState(serde::Deserializer* d, size_t dim) override;

 private:
  double Margin(const std::vector<double>& row) const;

  Options options_;
  std::vector<double> weights_;
  double bias_ = 0.0;
  /// Platt-style scale fitted on training margins.
  double proba_scale_ = 2.0;
};

}  // namespace wym::ml

#endif  // WYM_ML_LINEAR_H_
