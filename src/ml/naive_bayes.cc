#include "ml/naive_bayes.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace wym::ml {

GaussianNaiveBayes::GaussianNaiveBayes(Options options) : options_(options) {}

void GaussianNaiveBayes::Fit(const la::Matrix& x, const std::vector<int>& y) {
  WYM_CHECK_EQ(x.rows(), y.size());
  WYM_CHECK_GT(x.rows(), 0u);
  const size_t n = x.rows();
  const size_t d = x.cols();

  size_t counts[2] = {0, 0};
  for (int c = 0; c < 2; ++c) {
    mean_[c].assign(d, 0.0);
    var_[c].assign(d, 0.0);
  }
  for (size_t i = 0; i < n; ++i) {
    const int c = y[i] == 1 ? 1 : 0;
    ++counts[c];
    const double* row = x.Row(i);
    for (size_t j = 0; j < d; ++j) mean_[c][j] += row[j];
  }
  for (int c = 0; c < 2; ++c) {
    const double denom = std::max<size_t>(counts[c], 1);
    for (size_t j = 0; j < d; ++j) mean_[c][j] /= static_cast<double>(denom);
  }
  double max_var = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const int c = y[i] == 1 ? 1 : 0;
    const double* row = x.Row(i);
    for (size_t j = 0; j < d; ++j) {
      const double dv = row[j] - mean_[c][j];
      var_[c][j] += dv * dv;
    }
  }
  for (int c = 0; c < 2; ++c) {
    const double denom = std::max<size_t>(counts[c], 1);
    for (size_t j = 0; j < d; ++j) {
      var_[c][j] /= static_cast<double>(denom);
      max_var = std::max(max_var, var_[c][j]);
    }
  }
  const double smoothing = std::max(options_.var_smoothing * max_var, 1e-12);
  for (int c = 0; c < 2; ++c) {
    for (size_t j = 0; j < d; ++j) var_[c][j] += smoothing;
  }
  for (int c = 0; c < 2; ++c) {
    log_prior_[c] = std::log(
        std::max(1.0, static_cast<double>(counts[c])) /
        static_cast<double>(n));
  }
}

double GaussianNaiveBayes::PredictProba(const std::vector<double>& row) const {
  WYM_CHECK_EQ(row.size(), mean_[0].size());
  double log_like[2];
  for (int c = 0; c < 2; ++c) {
    double ll = log_prior_[c];
    for (size_t j = 0; j < row.size(); ++j) {
      const double dv = row[j] - mean_[c][j];
      // wym-lint: allow(kernel-bypass-accumulation): fixed-order scalar loop over strided class stats, not a contiguous dot
      ll += -0.5 * (std::log(2.0 * M_PI * var_[c][j]) + dv * dv / var_[c][j]);
    }
    log_like[c] = ll;
  }
  const double max_ll = std::max(log_like[0], log_like[1]);
  const double e0 = std::exp(log_like[0] - max_ll);
  const double e1 = std::exp(log_like[1] - max_ll);
  return e1 / (e0 + e1);
}

void GaussianNaiveBayes::SaveState(serde::Serializer* s) const {
  s->Tag("nb/v1");
  for (int c = 0; c < 2; ++c) {
    s->VecF64(mean_[c]);
    s->VecF64(var_[c]);
    s->F64(log_prior_[c]);
  }
}

bool GaussianNaiveBayes::LoadState(serde::Deserializer* d, size_t dim) {
  if (!d->Tag("nb/v1")) return false;
  for (int c = 0; c < 2; ++c) {
    mean_[c] = d->VecF64();
    var_[c] = d->VecF64();
    log_prior_[c] = d->F64();
  }
  if (!d->ok()) return false;
  // Variances feed log() and a division: a zero/negative/non-finite one
  // from a damaged stream would poison the likelihood with NaN.
  for (int c = 0; c < 2; ++c) {
    if (mean_[c].size() != dim || var_[c].size() != dim) return false;
    for (const double v : var_[c]) {
      if (!std::isfinite(v) || v <= 0.0) return false;
    }
  }
  return true;
}

}  // namespace wym::ml
