#include "embedding/siamese_calibrator.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/random.h"

namespace wym::embedding {

SiameseCalibrator::SiameseCalibrator(Options options) : options_(options) {}

void SiameseCalibrator::Fit(
    const std::vector<std::pair<la::Vec, la::Vec>>& pairs,
    const std::vector<int>& labels) {
  WYM_CHECK_EQ(pairs.size(), labels.size());
  if (pairs.empty()) return;
  const size_t dim = pairs[0].first.size();
  std::vector<double> w(dim, 1.0);

  Rng rng(options_.seed);
  std::vector<size_t> order(pairs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t idx : order) {
      const la::Vec& a = pairs[idx].first;
      const la::Vec& b = pairs[idx].second;
      WYM_CHECK_EQ(a.size(), dim);

      // s = (u . v) / (|u| |v|) with u = w*a, v = w*b (elementwise).
      double p = 0.0, nu2 = 0.0, nv2 = 0.0;
      for (size_t k = 0; k < dim; ++k) {
        const double ua = w[k] * a[k];
        const double vb = w[k] * b[k];
        p += ua * vb;
        nu2 += ua * ua;
        nv2 += vb * vb;
      }
      const double nu = std::sqrt(nu2);
      const double nv = std::sqrt(nv2);
      if (nu < 1e-9 || nv < 1e-9) continue;
      const double s = p / (nu * nv);
      const double target = labels[idx] == 1 ? 1.0 : options_.negative_target;
      const double err = s - target;  // d(0.5*err^2)/ds = err

      // ds/dw_k = (2 w a b) / (nu nv) - s (w a^2 / nu^2 + w b^2 / nv^2).
      for (size_t k = 0; k < dim; ++k) {
        const double ak = a[k];
        const double bk = b[k];
        const double grad_s = (2.0 * w[k] * ak * bk) / (nu * nv) -
                              s * (w[k] * ak * ak / nu2 + w[k] * bk * bk / nv2);
        w[k] -= options_.learning_rate * err * grad_s;
        w[k] = std::clamp(w[k], options_.min_weight, options_.max_weight);
      }
    }
  }

  weights_.assign(dim, 1.0f);
  for (size_t k = 0; k < dim; ++k) weights_[k] = static_cast<float>(w[k]);
  fitted_ = true;
}

void SiameseCalibrator::Apply(float* row) const {
  if (!fitted_) return;
  for (size_t k = 0; k < weights_.size(); ++k) row[k] *= weights_[k];
  la::Normalize(row, weights_.size());
}

void SiameseCalibrator::Save(serde::Serializer* s) const {
  s->Tag("siamese/v1");
  s->Bool(fitted_);
  s->VecF32(weights_);
}

bool SiameseCalibrator::Load(serde::Deserializer* d) {
  if (!d->Tag("siamese/v1")) return false;
  fitted_ = d->Bool();
  weights_ = d->VecF32();
  return d->ok();
}

}  // namespace wym::embedding
