#ifndef WYM_ML_SCALER_H_
#define WYM_ML_SCALER_H_

#include <span>
#include <vector>

#include "la/matrix.h"
#include "util/serde.h"

/// \file
/// Standardization (zero mean / unit variance) applied by the explainable
/// matcher before training the classifier pool, with the bookkeeping needed
/// to translate coefficients back to the raw feature space for impacts.

namespace wym::ml {

/// Per-feature standardizer.
class StandardScaler {
 public:
  /// Learns per-column mean and standard deviation (constant columns get
  /// scale 1 so they pass through unchanged).
  void Fit(const la::Matrix& x);

  /// Returns `x` standardized, row by row.
  la::Matrix Transform(la::Matrix x) const;

  /// Standardizes one row in place: x -> (x - mean) / scale.
  void TransformRow(std::span<double> row) const;

  /// Converts a coefficient vector learned on *scaled* features into the
  /// equivalent raw-space coefficients: w_raw[j] = w_scaled[j] / sigma[j].
  std::vector<double> RawCoefficients(
      const std::vector<double>& scaled_coefficients) const;

  /// Serialization (see util/serde.h).
  void Save(serde::Serializer* s) const;
  bool Load(serde::Deserializer* d, size_t dim);

  bool fitted() const { return fitted_; }
  const std::vector<double>& mean() const { return mean_; }
  const std::vector<double>& scale() const { return scale_; }

 private:
  bool fitted_ = false;
  std::vector<double> mean_;
  std::vector<double> scale_;
};

}  // namespace wym::ml

#endif  // WYM_ML_SCALER_H_
