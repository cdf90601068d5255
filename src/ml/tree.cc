#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace wym::ml {

namespace {

/// Weighted mean of y over indices [begin, end).
double WeightedMean(const std::vector<double>& y,
                    const std::vector<double>& weights,
                    const std::vector<size_t>& indices, size_t begin,
                    size_t end) {
  double sum = 0.0, total = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const size_t idx = indices[i];
    const double w = weights.empty() ? 1.0 : weights[idx];
    sum += w * y[idx];
    total += w;
  }
  return total > 0.0 ? sum / total : 0.0;
}

}  // namespace

PresortedFeatures::PresortedFeatures(const la::Matrix& x)
    : rows_(x.rows()),
      cols_(x.cols()),
      columns_(x.rows() * x.cols()),
      order_(x.rows() * x.cols()) {
  WYM_CHECK_LE(rows_, size_t{std::numeric_limits<uint32_t>::max()});
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t f = 0; f < cols_; ++f) columns_[f * rows_ + r] = x.At(r, f);
  }
  for (size_t f = 0; f < cols_; ++f) {
    const double* column = columns_.data() + f * rows_;
    uint32_t* order = order_.data() + f * rows_;
    for (size_t r = 0; r < rows_; ++r) order[r] = static_cast<uint32_t>(r);
    std::sort(order, order + rows_, [column](uint32_t a, uint32_t b) {
      return column[a] < column[b] || (column[a] == column[b] && a < b);
    });
  }
}

/// The exact split search reads a node's samples of each feature in
/// (value, row) order from `lists`: feature f's list sits at f * m (m =
/// sample count, repeats kept) and a node owns the same position range
/// [begin, end) in every list and in `indices`. A split stable-
/// partitions each list, so every child range stays sorted.
struct RegressionTree::Growth {
  const la::Matrix& x;
  const std::vector<double>& y;
  const std::vector<double>& weights;
  Rng* rng;
  const PresortedFeatures* presorted;
  std::vector<size_t> indices;
  std::vector<uint32_t> lists;
  std::vector<uint32_t> spill;     // Right-hand rows during a partition.
  std::vector<uint8_t> goes_left;  // Per matrix row, for the split at hand.
};

RegressionTree::RegressionTree(TreeOptions options) : options_(options) {}

void RegressionTree::Fit(const la::Matrix& x, const std::vector<double>& y,
                         const std::vector<double>& weights,
                         const std::vector<size_t>& indices, Rng* rng,
                         const PresortedFeatures* presorted) {
  WYM_CHECK(!indices.empty());
  WYM_CHECK_EQ(x.rows(), y.size());
  nodes_.clear();
  Growth growth{x, y, weights, rng, presorted, indices, {}, {}, {}};
  if (!options_.random_thresholds) {
    WYM_CHECK(presorted != nullptr);
    WYM_CHECK_EQ(presorted->rows(), x.rows());
    WYM_CHECK_EQ(presorted->cols(), x.cols());
    // Each feature's list is the presorted order with every row repeated
    // as often as it is sampled.
    const size_t n = x.rows();
    const size_t m = indices.size();
    std::vector<uint32_t> multiplicity(n, 0);
    for (size_t idx : indices) ++multiplicity[idx];
    growth.lists.resize(x.cols() * m);
    uint32_t* out = growth.lists.data();
    for (size_t f = 0; f < x.cols(); ++f) {
      const uint32_t* order = presorted->order_.data() + f * n;
      for (size_t r = 0; r < n; ++r) {
        out = std::fill_n(out, multiplicity[order[r]], order[r]);
      }
    }
    growth.spill.resize(m);
    growth.goes_left.resize(n);
  }
  Grow(&growth, 0, indices.size(), 0);
}

int RegressionTree::Grow(Growth* growth, size_t begin, size_t end,
                         size_t depth) {
  const la::Matrix& x = growth->x;
  const std::vector<double>& y = growth->y;
  const std::vector<double>& weights = growth->weights;
  std::vector<size_t>* indices = &growth->indices;
  Rng* rng = growth->rng;

  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].value = WeightedMean(y, weights, *indices, begin, end);

  const size_t count = end - begin;
  if (depth >= options_.max_depth || count < options_.min_samples_split) {
    return node_id;
  }

  // Parent impurity statistics (weighted sum of squares decomposition).
  double w_total = 0.0, wy_total = 0.0, wyy_total = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const size_t idx = (*indices)[i];
    const double w = weights.empty() ? 1.0 : weights[idx];
    const double v = y[idx];
    w_total += w;
    wy_total += w * v;
    wyy_total += w * v * v;
  }
  if (w_total <= 0.0) return node_id;
  const double parent_sse = wyy_total - wy_total * wy_total / w_total;
  if (parent_sse <= 1e-12) return node_id;  // Pure node.

  // Feature subset.
  const size_t d = x.cols();
  std::vector<size_t> features(d);
  for (size_t j = 0; j < d; ++j) features[j] = j;
  size_t feature_count = d;
  if (options_.max_features > 0 && options_.max_features < d) {
    WYM_CHECK(rng != nullptr);
    rng->Shuffle(&features);
    feature_count = options_.max_features;
  }

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_gain = 1e-12;

  for (size_t f = 0; f < feature_count; ++f) {
    const size_t feature = features[f];

    if (options_.random_thresholds) {
      // ExtraTrees: a single uniform threshold in the node's value range.
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      for (size_t i = begin; i < end; ++i) {
        const double v = x.At((*indices)[i], feature);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      if (hi <= lo) continue;
      WYM_CHECK(rng != nullptr);
      const double threshold = rng->Uniform(lo, hi);
      double wl = 0.0, wyl = 0.0, wyyl = 0.0;
      size_t left_count = 0;
      for (size_t i = begin; i < end; ++i) {
        const size_t idx = (*indices)[i];
        if (x.At(idx, feature) > threshold) continue;
        const double w = weights.empty() ? 1.0 : weights[idx];
        const double v = y[idx];
        wl += w;
        wyl += w * v;
        wyyl += w * v * v;
        ++left_count;
      }
      const size_t right_count = count - left_count;
      if (left_count < options_.min_samples_leaf ||
          right_count < options_.min_samples_leaf || wl <= 0.0 ||
          w_total - wl <= 0.0) {
        continue;
      }
      const double left_sse = wyyl - wyl * wyl / wl;
      const double wr = w_total - wl;
      const double wyr = wy_total - wyl;
      const double wyyr = wyy_total - wyyl;
      const double right_sse = wyyr - wyr * wyr / wr;
      const double gain = parent_sse - left_sse - right_sse;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(feature);
        best_threshold = threshold;
      }
      continue;
    }

    // Exact scan over the node's cut points in (value, row) order.
    const uint32_t* sorted =
        growth->lists.data() + feature * indices->size() + begin;
    const double* column =
        growth->presorted->columns_.data() + feature * x.rows();
    if (column[sorted[0]] == column[sorted[count - 1]]) continue;

    double wl = 0.0, wyl = 0.0, wyyl = 0.0;
    for (size_t i = 0; i + 1 < count; ++i) {
      const size_t idx = sorted[i];
      const double w = weights.empty() ? 1.0 : weights[idx];
      const double v = y[idx];
      wl += w;
      wyl += w * v;
      wyyl += w * v * v;
      // Only cut between distinct values.
      const double value = column[idx];
      const double next = column[sorted[i + 1]];
      if (value == next) continue;
      const size_t left_count = i + 1;
      const size_t right_count = count - left_count;
      if (left_count < options_.min_samples_leaf ||
          right_count < options_.min_samples_leaf) {
        continue;
      }
      const double wr = w_total - wl;
      if (wl <= 0.0 || wr <= 0.0) continue;
      const double left_sse = wyyl - wyl * wyl / wl;
      const double wyr = wy_total - wyl;
      const double wyyr = wyy_total - wyyl;
      const double right_sse = wyyr - wyr * wyr / wr;
      const double gain = parent_sse - left_sse - right_sse;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(feature);
        best_threshold = 0.5 * (value + next);
      }
    }
  }

  if (best_feature < 0) return node_id;

  // Partition indices in place.
  auto middle = std::partition(
      indices->begin() + begin, indices->begin() + end,
      [&](size_t idx) { return x.At(idx, best_feature) <= best_threshold; });
  const size_t split = static_cast<size_t>(middle - indices->begin());
  if (split == begin || split == end) return node_id;  // Numeric edge case.

  // Children that search for a split read the lists: partition each
  // feature's range stably by the same predicate, so both halves stay in
  // (value, row) order and line up with [begin, split) / [split, end).
  if (!growth->lists.empty() && depth + 1 < options_.max_depth &&
      std::max(split - begin, end - split) >= options_.min_samples_split) {
    for (size_t i = begin; i < end; ++i) {
      const size_t idx = (*indices)[i];
      growth->goes_left[idx] = i < split;
    }
    uint32_t* spill = growth->spill.data();
    for (size_t f = 0; f < d; ++f) {
      uint32_t* list = growth->lists.data() + f * indices->size() + begin;
      size_t left = 0, right = 0;
      for (size_t i = 0; i < count; ++i) {
        const uint32_t row = list[i];
        if (growth->goes_left[row]) {
          list[left++] = row;
        } else {
          spill[right++] = row;
        }
      }
      WYM_DCHECK(left == split - begin);
      std::copy(spill, spill + right, list + left);
    }
  }

  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  const int left = Grow(growth, begin, split, depth + 1);
  nodes_[node_id].left = left;
  const int right = Grow(growth, split, end, depth + 1);
  nodes_[node_id].right = right;
  return node_id;
}

double RegressionTree::Predict(const double* row) const {
  WYM_CHECK(!nodes_.empty()) << "RegressionTree used before Fit";
  int node = 0;
  while (nodes_[node].feature >= 0) {
    node = (row[nodes_[node].feature] <= nodes_[node].threshold)
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return nodes_[node].value;
}

void RegressionTree::Save(serde::Serializer* s) const {
  s->Tag("tree/v1");
  s->U64(nodes_.size());
  for (const Node& node : nodes_) {
    s->I64(node.feature);
    s->F64(node.threshold);
    s->I64(node.left);
    s->I64(node.right);
    s->F64(node.value);
  }
}

bool RegressionTree::Load(serde::Deserializer* d, size_t dim) {
  if (!d->Tag("tree/v1")) return false;
  const uint64_t count = d->U64();
  if (!d->ok() || count == 0 || count > (1u << 26)) return false;
  nodes_.assign(count, {});
  for (Node& node : nodes_) {
    node.feature = static_cast<int>(d->I64());
    node.threshold = d->F64();
    node.left = static_cast<int>(d->I64());
    node.right = static_cast<int>(d->I64());
    node.value = d->F64();
  }
  if (!d->ok()) return false;
  // Structural sanity: split features index the row, children stay in
  // bounds, and every child id is greater than its parent's, as Grow's
  // preorder ids are. So Predict's walk reads only inside the row, only
  // moves forward and ends at a leaf: no cycle, no hang.
  for (size_t id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (node.feature >= 0 &&
        (static_cast<size_t>(node.feature) >= dim ||
         node.left <= static_cast<int>(id) ||
         node.right <= static_cast<int>(id) ||
         static_cast<size_t>(node.left) >= nodes_.size() ||
         static_cast<size_t>(node.right) >= nodes_.size())) {
      return false;
    }
  }
  return true;
}

DecisionTreeClassifier::DecisionTreeClassifier(Options options)
    : options_(options), tree_(options.tree) {}

void DecisionTreeClassifier::Fit(const la::Matrix& x,
                                 const std::vector<int>& y) {
  WYM_CHECK_EQ(x.rows(), y.size());
  WYM_CHECK_GT(x.rows(), 0u);
  std::vector<double> targets(y.begin(), y.end());
  std::vector<size_t> indices(x.rows());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  Rng rng(options_.seed);
  const PresortedFeatures presorted(x);
  tree_ = RegressionTree(options_.tree);
  tree_.Fit(x, targets, /*weights=*/{}, indices, &rng, &presorted);
}

double DecisionTreeClassifier::PredictProba(
    const std::vector<double>& row) const {
  return std::clamp(tree_.Predict(row), 0.0, 1.0);
}

void DecisionTreeClassifier::SaveState(serde::Serializer* s) const {
  s->Tag("dt/v1");
  tree_.Save(s);
}

bool DecisionTreeClassifier::LoadState(serde::Deserializer* d, size_t dim) {
  if (!d->Tag("dt/v1")) return false;
  return tree_.Load(d, dim);
}

}  // namespace wym::ml
