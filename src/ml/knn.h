#ifndef WYM_ML_KNN_H_
#define WYM_ML_KNN_H_

#include <cstddef>
#include <vector>

#include "ml/classifier.h"

/// \file
/// k-nearest-neighbours classifier (brute-force Euclidean). Matches the
/// KNN member of the paper's classifier pool.

namespace wym::ml {

/// Options for KNearestNeighbors.
struct KNearestNeighborsOptions {
  size_t k = 5;
  /// Weight votes by inverse distance (ties broken by uniform votes).
  bool distance_weighted = true;
};

/// Distance-weighted kNN. PredictProba is const and safe to call
/// concurrently: it keeps no scratch in the object.
class KNearestNeighbors : public Classifier {
 public:
  using Options = KNearestNeighborsOptions;

  explicit KNearestNeighbors(Options options = {});

  const char* name() const override { return "KNN"; }
  void Fit(const la::Matrix& x, const std::vector<int>& y) override;
  double PredictProba(const std::vector<double>& row) const override;
  std::vector<double> SignedImportance() const override {
    return importance_;
  }
  void SaveState(serde::Serializer* s) const override;
  bool LoadState(serde::Deserializer* d) override;

 private:
  /// Rebuilds packed_x_ from train_x_.
  void PackTrainingRows();

  Options options_;
  /// Training rows, row-major: the serialized form.
  la::Matrix train_x_;
  /// train_x_ in the row-block layout of la::kernels::SquaredDistances.
  std::vector<double> packed_x_;
  std::vector<int> train_y_;
  std::vector<double> importance_;
};

}  // namespace wym::ml

#endif  // WYM_ML_KNN_H_
