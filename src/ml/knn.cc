#include "ml/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "la/kernels.h"
#include "util/logging.h"

namespace wym::ml {

KNearestNeighbors::KNearestNeighbors(Options options) : options_(options) {}

void KNearestNeighbors::Fit(const la::Matrix& x, const std::vector<int>& y) {
  WYM_CHECK_EQ(x.rows(), y.size());
  WYM_CHECK_GT(x.rows(), 0u);
  train_x_ = x;
  train_y_ = y;
  PackTrainingRows();
}

std::vector<double> KNearestNeighbors::SignedImportance(
    const la::Matrix& x) const {
  const size_t sample = std::min<size_t>(x.rows(), 512);
  la::Matrix sample_x(sample, x.cols());
  for (size_t i = 0; i < sample; ++i) {
    std::copy(x.Row(i), x.Row(i) + x.cols(), sample_x.Row(i));
  }
  return Classifier::SignedImportance(sample_x);
}

void KNearestNeighbors::PackTrainingRows() {
  packed_x_.resize(
      la::kernels::RowBlocksSize(train_x_.rows(), train_x_.cols()));
  la::kernels::PackRowBlocks(train_x_.data().data(), train_x_.rows(),
                             train_x_.cols(), packed_x_.data());
}

double KNearestNeighbors::PredictProba(const std::vector<double>& row) const {
  WYM_CHECK_GT(train_x_.rows(), 0u) << "KNN used before Fit";
  WYM_CHECK_EQ(row.size(), train_x_.cols());
  const size_t n = train_x_.rows();
  const size_t dim = train_x_.cols();
  const size_t k = std::min(options_.k, n);

  // The k smallest (squared distance, label) pairs so far, a max-heap
  // under pair order: the front is the pair the next nearer one evicts.
  // A NaN distance (a non-finite feature) has no place in that order,
  // so it is caught before it is compared: such a query has no
  // neighbours and answers NaN.
  std::vector<std::pair<double, int>> nearest;
  nearest.reserve(k);
  constexpr size_t kChunk = 64 * la::kernels::kRowBlock;
  double chunk[kChunk];
  for (size_t begin = 0; begin < n; begin += kChunk) {
    const size_t rows = std::min(kChunk, n - begin);
    la::kernels::SquaredDistances(row.data(), packed_x_.data() + begin * dim,
                                  rows, dim, chunk);
    for (size_t i = 0; i < rows; ++i) {
      if (std::isnan(chunk[i])) return std::numeric_limits<double>::quiet_NaN();
      const std::pair<double, int> pair{chunk[i], train_y_[begin + i]};
      if (nearest.size() < k) {
        nearest.push_back(pair);
        std::push_heap(nearest.begin(), nearest.end());
      } else if (pair < nearest.front()) {
        std::pop_heap(nearest.begin(), nearest.end());
        nearest.back() = pair;
        std::push_heap(nearest.begin(), nearest.end());
      }
    }
  }
  // Nearest first: the sum below is a function of the k pairs alone,
  // not of the training rows' order.
  std::sort_heap(nearest.begin(), nearest.end());

  double vote1 = 0.0, total = 0.0;
  for (size_t i = 0; i < k; ++i) {
    const double weight =
        options_.distance_weighted
            ? 1.0 / (std::sqrt(nearest[i].first) + 1e-6)
            : 1.0;
    total += weight;
    if (nearest[i].second == 1) vote1 += weight;
  }
  return total > 0.0 ? vote1 / total : 0.5;
}

void KNearestNeighbors::SaveState(serde::Serializer* s) const {
  s->Tag("knn/v1");
  s->U64(options_.k);
  s->Bool(options_.distance_weighted);
  train_x_.Save(s);
  std::vector<uint64_t> labels(train_y_.begin(), train_y_.end());
  s->VecU64(labels);
}

bool KNearestNeighbors::LoadState(serde::Deserializer* d, size_t dim) {
  if (!d->Tag("knn/v1")) return false;
  options_.k = d->U64();
  options_.distance_weighted = d->Bool();
  if (!train_x_.Load(d)) return false;
  const std::vector<uint64_t> labels = d->VecU64();
  train_y_.assign(labels.begin(), labels.end());
  // k = 0 from a damaged stream would leave PredictProba's heap empty,
  // and its first eviction test reads the front of that empty heap.
  if (!d->ok() || options_.k < 1 || train_y_.size() != train_x_.rows() ||
      train_x_.cols() != dim) {
    return false;
  }
  PackTrainingRows();
  return true;
}

}  // namespace wym::ml
