#include "ml/linear.h"

#include <algorithm>
#include <cmath>

#include "la/kernels.h"
#include "util/logging.h"
#include "util/random.h"

namespace wym::ml {

namespace {

double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

double DotRow(const std::vector<double>& w, const double* row) {
  return la::kernels::Dot(w.data(), row, w.size());
}

}  // namespace

LogisticRegression::LogisticRegression(Options options) : options_(options) {}

void LogisticRegression::Fit(const la::Matrix& x, const std::vector<int>& y) {
  WYM_CHECK_EQ(x.rows(), y.size());
  WYM_CHECK_GT(x.rows(), 0u);
  const size_t n = x.rows();
  const size_t d = x.cols();
  weights_.assign(d, 0.0);
  bias_ = 0.0;

  std::vector<double> grad(d);
  for (size_t it = 0; it < options_.iterations; ++it) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad_bias = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double* row = x.Row(i);
      const double p = Sigmoid(DotRow(weights_, row) + bias_);
      const double err = p - static_cast<double>(y[i]);
      la::kernels::Axpy(err, row, grad.data(), d);
      grad_bias += err;
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    for (size_t j = 0; j < d; ++j) {
      weights_[j] -=
          options_.learning_rate * (grad[j] * inv_n + options_.l2 * weights_[j]);
    }
    bias_ -= options_.learning_rate * grad_bias * inv_n;
  }
}

double LogisticRegression::PredictProba(const std::vector<double>& row) const {
  WYM_CHECK_EQ(row.size(), weights_.size());
  return Sigmoid(DotRow(weights_, row.data()) + bias_);
}

LinearSvm::LinearSvm(Options options) : options_(options) {}

double LinearSvm::Margin(const std::vector<double>& row) const {
  WYM_CHECK_EQ(row.size(), weights_.size());
  return DotRow(weights_, row.data()) + bias_;
}

void LinearSvm::Fit(const la::Matrix& x, const std::vector<int>& y) {
  WYM_CHECK_EQ(x.rows(), y.size());
  WYM_CHECK_GT(x.rows(), 0u);
  const size_t n = x.rows();
  const size_t d = x.cols();
  weights_.assign(d, 0.0);
  bias_ = 0.0;

  Rng rng(options_.seed);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;

  size_t t = 0;
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t i : order) {
      ++t;
      const double eta =
          1.0 / (options_.lambda * static_cast<double>(t));
      const double* row = x.Row(i);
      const double label = y[i] == 1 ? 1.0 : -1.0;
      const double margin = label * (DotRow(weights_, row) + bias_);
      // L2 shrink.
      const double shrink = 1.0 - eta * options_.lambda;
      la::kernels::Scale(shrink, weights_.data(), d);
      if (margin < 1.0) {
        la::kernels::Axpy(eta * label, row, weights_.data(), d);
        bias_ += eta * label;
      }
    }
  }

  // Calibrate the logistic link scale so that the median |margin| maps to
  // a confident-but-not-saturated probability.
  std::vector<double> abs_margins(n);
  for (size_t i = 0; i < n; ++i) {
    abs_margins[i] = std::fabs(DotRow(weights_, x.Row(i)) + bias_);
  }
  std::nth_element(abs_margins.begin(), abs_margins.begin() + n / 2,
                   abs_margins.end());
  const double median = abs_margins[n / 2];
  proba_scale_ = (median > 1e-9) ? 2.0 / median : 2.0;
}

double LinearSvm::PredictProba(const std::vector<double>& row) const {
  return Sigmoid(proba_scale_ * Margin(row));
}

void LogisticRegression::SaveState(serde::Serializer* s) const {
  s->Tag("lr/v1");
  s->VecF64(weights_);
  s->F64(bias_);
}

bool LogisticRegression::LoadState(serde::Deserializer* d, size_t dim) {
  if (!d->Tag("lr/v1")) return false;
  weights_ = d->VecF64();
  bias_ = d->F64();
  return d->ok() && weights_.size() == dim;
}

void LinearSvm::SaveState(serde::Serializer* s) const {
  s->Tag("svm/v1");
  s->VecF64(weights_);
  s->F64(bias_);
  s->F64(proba_scale_);
}

bool LinearSvm::LoadState(serde::Deserializer* d, size_t dim) {
  if (!d->Tag("svm/v1")) return false;
  weights_ = d->VecF64();
  bias_ = d->F64();
  proba_scale_ = d->F64();
  return d->ok() && weights_.size() == dim;
}

}  // namespace wym::ml
