#include "ml/classifier.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace wym::ml {

std::vector<int> Classifier::PredictBatch(const la::Matrix& x) const {
  std::vector<int> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) out[r] = Predict(x.RowVector(r));
  return out;
}

std::vector<double> Classifier::SignedImportance(const la::Matrix& x) const {
  std::vector<double> probas(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    probas[i] = PredictProba(x.RowVector(i));
  }
  return internal::SurrogateImportance(x, probas);
}

namespace internal {

std::vector<double> SurrogateImportance(const la::Matrix& x,
                                        const std::vector<double>& probas) {
  WYM_CHECK_EQ(x.rows(), probas.size());
  const size_t n = x.rows();
  const size_t d = x.cols();
  std::vector<double> importance(d, 0.0);
  if (n < 2) return importance;

  // Log-odds of the fitted probabilities, clamped away from 0/1.
  std::vector<double> logit(n);
  double logit_mean = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double p = std::clamp(probas[i], 1e-6, 1.0 - 1e-6);
    logit[i] = std::log(p / (1.0 - p));
    logit_mean += logit[i];
  }
  logit_mean /= static_cast<double>(n);

  for (size_t j = 0; j < d; ++j) {
    double x_mean = 0.0;
    for (size_t i = 0; i < n; ++i) x_mean += x.At(i, j);
    x_mean /= static_cast<double>(n);
    double cov = 0.0, var = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double dx = x.At(i, j) - x_mean;
      cov += dx * (logit[i] - logit_mean);
      var += dx * dx;
    }
    importance[j] = (var > 1e-12) ? cov / var : 0.0;
  }
  return importance;
}

}  // namespace internal

}  // namespace wym::ml
