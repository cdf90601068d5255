#ifndef WYM_ML_TREE_H_
#define WYM_ML_TREE_H_

#include <cstdint>
#include <vector>

#include "la/matrix.h"
#include "ml/classifier.h"
#include "util/random.h"

/// \file
/// Regression-tree core shared by CART, RandomForest, ExtraTrees, the
/// AdaBoost stumps and GradientBoosting. For binary classification the
/// tree regresses 0/1 targets: minimizing weighted variance is equivalent
/// to minimizing Gini impurity, and leaf means are class-1 probabilities.

namespace wym::ml {

/// Split/grow controls.
struct TreeOptions {
  size_t max_depth = 10;
  size_t min_samples_leaf = 2;
  size_t min_samples_split = 4;
  /// Features examined per split; 0 = all (CART), sqrt(d) for forests.
  size_t max_features = 0;
  /// ExtraTrees: draw one uniform threshold per candidate feature instead
  /// of scanning all cut points.
  bool random_thresholds = false;
};

/// Presorted attribute lists (SLIQ, Mehta, Agrawal & Rissanen 1996):
/// every feature's rows sorted once by (value, row index). A classifier
/// builds one per Fit and hands it to each of its trees, so the exact
/// split search never sorts again; trees keep no reference to it.
/// Holds 12 bytes per matrix cell (a column-major copy of x and one
/// 32-bit row index); the values must not be NaN.
class PresortedFeatures {
 public:
  explicit PresortedFeatures(const la::Matrix& x);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

 private:
  friend class RegressionTree;

  size_t rows_ = 0;
  size_t cols_ = 0;
  /// x column-major: feature f of row r at f * rows_ + r.
  std::vector<double> columns_;
  /// Feature f's rows in (value, row) order at f * rows_.
  std::vector<uint32_t> order_;
};

/// A fitted regression tree (flat node array).
class RegressionTree {
 public:
  explicit RegressionTree(TreeOptions options = {});

  /// Fits on the rows of x listed in `indices` (repeats allowed, e.g. a
  /// bootstrap sample) against targets y with per-sample weights (pass
  /// empty weights for uniform). `presorted` must be built from x; it is
  /// required unless options.random_thresholds, which never reads it.
  void Fit(const la::Matrix& x, const std::vector<double>& y,
           const std::vector<double>& weights,
           const std::vector<size_t>& indices, Rng* rng,
           const PresortedFeatures* presorted);

  /// Predicted value for a feature row.
  double Predict(const double* row) const;
  double Predict(const std::vector<double>& row) const {
    return Predict(row.data());
  }

  size_t node_count() const { return nodes_.size(); }
  bool fitted() const { return !nodes_.empty(); }

  /// Serialization (see util/serde.h). Load refuses a tree that splits
  /// on a feature >= `dim`, the width of the rows it will predict.
  void Save(serde::Serializer* s) const;
  bool Load(serde::Deserializer* d, size_t dim);

 private:
  struct Node {
    int feature = -1;  // -1 = leaf.
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    double value = 0.0;
  };

  /// One Fit's inputs and working lists (tree.cc).
  struct Growth;

  /// Grows the subtree over positions [begin, end) of the growth's
  /// index array (and of every feature's sorted list); returns its id.
  int Grow(Growth* growth, size_t begin, size_t end, size_t depth);

  TreeOptions options_;
  std::vector<Node> nodes_;
};

/// Options for DecisionTreeClassifier.
struct DecisionTreeClassifierOptions {
  TreeOptions tree;
  uint64_t seed = 0xCA27;
};

/// CART decision-tree classifier (pool member "DT" / "CART").
class DecisionTreeClassifier : public Classifier {
 public:
  using Options = DecisionTreeClassifierOptions;

  explicit DecisionTreeClassifier(Options options = {});

  const char* name() const override { return "DT"; }
  void Fit(const la::Matrix& x, const std::vector<int>& y) override;
  double PredictProba(const std::vector<double>& row) const override;
  void SaveState(serde::Serializer* s) const override;
  bool LoadState(serde::Deserializer* d, size_t dim) override;

 private:
  Options options_;
  RegressionTree tree_;
};

}  // namespace wym::ml

#endif  // WYM_ML_TREE_H_
