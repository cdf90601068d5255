#include "ml/scaler.h"

#include <cmath>

#include "util/logging.h"

namespace wym::ml {

void StandardScaler::Fit(const la::Matrix& x) {
  WYM_CHECK_GT(x.rows(), 0u);
  const size_t n = x.rows();
  const size_t d = x.cols();
  mean_.assign(d, 0.0);
  scale_.assign(d, 1.0);
  for (size_t j = 0; j < d; ++j) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) sum += x.At(i, j);
    mean_[j] = sum / static_cast<double>(n);
    double var = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double dv = x.At(i, j) - mean_[j];
      var += dv * dv;
    }
    const double sd = std::sqrt(var / static_cast<double>(n));
    scale_[j] = (sd > 1e-9) ? sd : 1.0;
  }
  fitted_ = true;
}

la::Matrix StandardScaler::Transform(la::Matrix x) const {
  for (size_t i = 0; i < x.rows(); ++i) TransformRow({x.Row(i), x.cols()});
  return x;
}

void StandardScaler::TransformRow(std::span<double> row) const {
  WYM_CHECK(fitted_);
  WYM_CHECK_EQ(row.size(), mean_.size());
  for (size_t j = 0; j < row.size(); ++j) {
    row[j] = (row[j] - mean_[j]) / scale_[j];
  }
}

std::vector<double> StandardScaler::RawCoefficients(
    const std::vector<double>& scaled_coefficients) const {
  WYM_CHECK(fitted_);
  WYM_CHECK_EQ(scaled_coefficients.size(), scale_.size());
  std::vector<double> out(scaled_coefficients.size());
  for (size_t j = 0; j < out.size(); ++j) {
    out[j] = scaled_coefficients[j] / scale_[j];
  }
  return out;
}

void StandardScaler::Save(serde::Serializer* s) const {
  s->Tag("scaler/v1");
  s->Bool(fitted_);
  s->VecF64(mean_);
  s->VecF64(scale_);
}

bool StandardScaler::Load(serde::Deserializer* d, size_t dim) {
  if (!d->Tag("scaler/v1")) return false;
  fitted_ = d->Bool();
  mean_ = d->VecF64();
  scale_ = d->VecF64();
  if (!d->ok() || mean_.size() != dim || scale_.size() != dim) return false;
  // Every scale entry is a divisor; Fit guarantees them positive, so a
  // zero/negative/non-finite one can only come from a damaged stream.
  for (const double s : scale_) {
    if (!std::isfinite(s) || s <= 0.0) return false;
  }
  return true;
}

}  // namespace wym::ml
