#ifndef WYM_ML_FOREST_H_
#define WYM_ML_FOREST_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ml/classifier.h"
#include "ml/tree.h"

/// \file
/// Bagged tree ensembles of the classifier pool: RandomForest (bootstrap +
/// feature subsampling) and ExtraTrees (full sample + random thresholds).

namespace wym::ml {

/// Options shared by the tree ensembles.
struct TreeEnsembleOptions {
  size_t n_trees = 60;
  TreeOptions tree = {.max_depth = 10,
                      .min_samples_leaf = 1,
                      .min_samples_split = 2,
                      .max_features = 0,
                      .random_thresholds = false};
  bool bootstrap = true;
  uint64_t seed = 0xF0457;
};

/// Shared ensemble machinery; concrete classes fix the sampling policy.
class TreeEnsembleClassifier : public Classifier {
 public:
  using Options = TreeEnsembleOptions;

  void Fit(const la::Matrix& x, const std::vector<int>& y) override;
  double PredictProba(const std::vector<double>& row) const override;
  void SaveState(serde::Serializer* s) const override;
  bool LoadState(serde::Deserializer* d, size_t dim) override;

 protected:
  explicit TreeEnsembleClassifier(Options options);

  Options options_;

 private:
  std::vector<RegressionTree> trees_;
};

/// Breiman random forest ("RF").
class RandomForestClassifier : public TreeEnsembleClassifier {
 public:
  explicit RandomForestClassifier(Options options = {});
  const char* name() const override { return "RF"; }
};

/// Extremely randomized trees ("ET").
class ExtraTreesClassifier : public TreeEnsembleClassifier {
 public:
  explicit ExtraTreesClassifier(Options options = {});
  const char* name() const override { return "ET"; }
};

}  // namespace wym::ml

#endif  // WYM_ML_FOREST_H_
