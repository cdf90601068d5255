#ifndef WYM_ML_KNN_H_
#define WYM_ML_KNN_H_

#include <cstddef>
#include <new>
#include <vector>

#include "ml/classifier.h"

/// \file
/// k-nearest-neighbours classifier. Matches the KNN member of the
/// paper's classifier pool. A query's squared Euclidean distance to
/// every training row is computed; a bounded max-heap keeps the k
/// smallest (squared distance, label) pairs, so a distance tie goes to
/// label 0, and the vote sums their weights nearest first in ascending
/// pair order. The answer is a function of the query and the training
/// multiset alone: permuting the training rows changes no bit of it.

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
  /// The shared surrogate over the first 512 rows of `x` only:
  /// PredictProba is O(n), so every row would make it O(n^2).
  std::vector<double> SignedImportance(const la::Matrix& x) const override;
  void SaveState(serde::Serializer* s) const override;
  bool LoadState(serde::Deserializer* d, size_t dim) override;

 private:
  /// Rebuilds packed_x_ from train_x_.
  void PackTrainingRows();

  /// Allocates on 64-byte (cache-line) boundaries, so a buffer's place
  /// in its line does not depend on the heap.
  template <typename T>
  struct CacheLineAllocator {
    using value_type = T;
    static constexpr std::align_val_t kLine{64};
    T* allocate(size_t n) {
      return static_cast<T*>(::operator new(n * sizeof(T), kLine));
    }
    void deallocate(T* p, size_t) { ::operator delete(p, kLine); }
    bool operator==(const CacheLineAllocator&) const = default;
  };

  Options options_;
  /// Training rows, row-major: the serialized form.
  la::Matrix train_x_;
  /// train_x_ in the row-block layout of la::kernels::SquaredDistances,
  /// on a cache line so the distance loop's speed does not move with the
  /// heap.
  std::vector<double, CacheLineAllocator<double>> packed_x_;
  std::vector<int> train_y_;
};

}  // namespace wym::ml

#endif  // WYM_ML_KNN_H_
