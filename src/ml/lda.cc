#include "ml/lda.h"

#include <cmath>

#include "la/kernels.h"
#include "util/logging.h"

namespace wym::ml {

LinearDiscriminant::LinearDiscriminant(Options options) : options_(options) {}

void LinearDiscriminant::Fit(const la::Matrix& x, const std::vector<int>& y) {
  WYM_CHECK_EQ(x.rows(), y.size());
  WYM_CHECK_GT(x.rows(), 0u);
  const size_t n = x.rows();
  const size_t d = x.cols();

  // Class means and priors.
  std::vector<double> mean0(d, 0.0), mean1(d, 0.0);
  size_t n0 = 0, n1 = 0;
  for (size_t i = 0; i < n; ++i) {
    const double* row = x.Row(i);
    if (y[i] == 1) {
      ++n1;
      for (size_t j = 0; j < d; ++j) mean1[j] += row[j];
    } else {
      ++n0;
      for (size_t j = 0; j < d; ++j) mean0[j] += row[j];
    }
  }
  if (n0 == 0 || n1 == 0) {
    // Degenerate single-class training set: constant prediction.
    weights_.assign(d, 0.0);
    bias_ = (n1 > 0) ? 10.0 : -10.0;
    return;
  }
  for (size_t j = 0; j < d; ++j) {
    mean0[j] /= static_cast<double>(n0);
    mean1[j] /= static_cast<double>(n1);
  }

  // Pooled within-class covariance.
  la::Matrix cov(d, d);
  for (size_t i = 0; i < n; ++i) {
    const double* row = x.Row(i);
    const std::vector<double>& mean = (y[i] == 1) ? mean1 : mean0;
    for (size_t a = 0; a < d; ++a) {
      const double da = row[a] - mean[a];
      if (da == 0.0) continue;
      for (size_t b = 0; b < d; ++b) {
        cov.At(a, b) += da * (row[b] - mean[b]);
      }
    }
  }
  const double denom = static_cast<double>(n - 2 > 0 ? n - 2 : 1);
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = 0; b < d; ++b) cov.At(a, b) /= denom;
  }

  // w = Cov^-1 (mu1 - mu0).
  std::vector<double> diff(d);
  for (size_t j = 0; j < d; ++j) diff[j] = mean1[j] - mean0[j];
  weights_ = la::SolveLinearSystem(cov, diff, options_.ridge);

  // Intercept: -w.(mu0+mu1)/2 + log(p1/p0).
  std::vector<double> mean_sum(d);
  for (size_t j = 0; j < d; ++j) mean_sum[j] = mean0[j] + mean1[j];
  const double mid = la::kernels::Dot(weights_.data(), mean_sum.data(), d);
  bias_ = -0.5 * mid + std::log(static_cast<double>(n1) /
                                static_cast<double>(n0));
}

double LinearDiscriminant::PredictProba(const std::vector<double>& row) const {
  WYM_CHECK_EQ(row.size(), weights_.size());
  const double z =
      bias_ + la::kernels::Dot(weights_.data(), row.data(), row.size());
  return 1.0 / (1.0 + std::exp(-z));
}

void LinearDiscriminant::SaveState(serde::Serializer* s) const {
  s->Tag("lda/v1");
  s->VecF64(weights_);
  s->F64(bias_);
}

bool LinearDiscriminant::LoadState(serde::Deserializer* d, size_t dim) {
  if (!d->Tag("lda/v1")) return false;
  weights_ = d->VecF64();
  bias_ = d->F64();
  if (!d->ok() || weights_.size() != dim || !std::isfinite(bias_)) {
    return false;
  }
  // A single non-finite weight would turn every prediction into NaN.
  for (const double w : weights_) {
    if (!std::isfinite(w)) return false;
  }
  return true;
}

}  // namespace wym::ml
