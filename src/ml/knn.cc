#include "ml/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

  // Surrogate importance from leave-in fitted probabilities on a sample
  // (full n^2 would dominate training time on larger datasets).
  const size_t sample = std::min<size_t>(x.rows(), 512);
  la::Matrix sample_x(sample, x.cols());
  std::vector<double> probas(sample);
  for (size_t i = 0; i < sample; ++i) {
    for (size_t j = 0; j < x.cols(); ++j) sample_x.At(i, j) = x.At(i, j);
    probas[i] = PredictProba(x.RowVector(i));
  }
  importance_ = internal::SurrogateImportance(sample_x, probas);
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

  // Distances in training-row order, a chunk of rows per kernel call.
  // nth_element needs a strict weak order, which NaN keys (a non-finite
  // feature) break; such a query has no neighbours, so it answers NaN.
  std::vector<std::pair<double, int>> distances(n);
  constexpr size_t kChunk = 64 * la::kernels::kRowBlock;
  double chunk[kChunk];
  bool any_nan = false;
  for (size_t begin = 0; begin < n; begin += kChunk) {
    const size_t rows = std::min(kChunk, n - begin);
    la::kernels::SquaredDistances(row.data(), packed_x_.data() + begin * dim,
                                  rows, dim, chunk);
    for (size_t i = 0; i < rows; ++i) {
      any_nan |= std::isnan(chunk[i]);
      distances[begin + i] = {chunk[i], train_y_[begin + i]};
    }
  }
  if (any_nan) return std::numeric_limits<double>::quiet_NaN();
  std::nth_element(distances.begin(), distances.begin() + (k - 1),
                   distances.end());

  double vote1 = 0.0, total = 0.0;
  for (size_t i = 0; i < k; ++i) {
    const double weight =
        options_.distance_weighted
            ? 1.0 / (std::sqrt(distances[i].first) + 1e-6)
            : 1.0;
    total += weight;
    if (distances[i].second == 1) vote1 += weight;
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
  s->VecF64(importance_);
}

bool KNearestNeighbors::LoadState(serde::Deserializer* d) {
  if (!d->Tag("knn/v1")) return false;
  options_.k = d->U64();
  options_.distance_weighted = d->Bool();
  if (!train_x_.Load(d)) return false;
  const std::vector<uint64_t> labels = d->VecU64();
  train_y_.assign(labels.begin(), labels.end());
  importance_ = d->VecF64();
  // k = 0 from a damaged stream would wrap `begin() + (k - 1)` in
  // PredictProba's nth_element far past the end.
  if (!d->ok() || options_.k < 1 || train_y_.size() != train_x_.rows()) {
    return false;
  }
  PackTrainingRows();
  return true;
}

}  // namespace wym::ml
