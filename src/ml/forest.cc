#include "ml/forest.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "util/logging.h"
#include "util/random.h"

namespace wym::ml {

TreeEnsembleClassifier::TreeEnsembleClassifier(Options options)
    : options_(options) {}

void TreeEnsembleClassifier::Fit(const la::Matrix& x,
                                 const std::vector<int>& y) {
  WYM_CHECK_EQ(x.rows(), y.size());
  WYM_CHECK_GT(x.rows(), 0u);
  const size_t n = x.rows();
  std::vector<double> targets(y.begin(), y.end());

  // sqrt(d) feature subsampling unless the caller pinned max_features.
  TreeOptions tree_options = options_.tree;
  if (tree_options.max_features == 0) {
    tree_options.max_features = std::max<size_t>(
        1, static_cast<size_t>(std::sqrt(static_cast<double>(x.cols()))));
  }

  // ExtraTrees draws its thresholds and never reads presorted lists.
  std::optional<PresortedFeatures> presorted;
  if (!tree_options.random_thresholds) presorted.emplace(x);

  Rng rng(options_.seed);
  trees_.clear();
  trees_.reserve(options_.n_trees);
  for (size_t t = 0; t < options_.n_trees; ++t) {
    std::vector<size_t> indices(n);
    if (options_.bootstrap) {
      for (size_t i = 0; i < n; ++i) indices[i] = rng.Index(n);
    } else {
      for (size_t i = 0; i < n; ++i) indices[i] = i;
    }
    RegressionTree tree(tree_options);
    tree.Fit(x, targets, /*weights=*/{}, indices, &rng,
             presorted ? &*presorted : nullptr);
    trees_.push_back(std::move(tree));
  }
}

double TreeEnsembleClassifier::PredictProba(
    const std::vector<double>& row) const {
  WYM_CHECK(!trees_.empty()) << "ensemble used before Fit";
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree.Predict(row);
  return std::clamp(sum / static_cast<double>(trees_.size()), 0.0, 1.0);
}

void TreeEnsembleClassifier::SaveState(serde::Serializer* s) const {
  s->Tag("forest/v1");
  s->U64(trees_.size());
  for (const RegressionTree& tree : trees_) tree.Save(s);
}

bool TreeEnsembleClassifier::LoadState(serde::Deserializer* d, size_t dim) {
  if (!d->Tag("forest/v1")) return false;
  const uint64_t count = d->U64();
  if (!d->ok() || count > 4096) return false;
  trees_.assign(count, RegressionTree(options_.tree));
  for (RegressionTree& tree : trees_) {
    if (!tree.Load(d, dim)) return false;
  }
  return d->ok();
}

RandomForestClassifier::RandomForestClassifier(Options options)
    : TreeEnsembleClassifier([&] {
        options.bootstrap = true;
        options.tree.random_thresholds = false;
        return options;
      }()) {}

ExtraTreesClassifier::ExtraTreesClassifier(Options options)
    : TreeEnsembleClassifier([&] {
        options.bootstrap = false;
        options.tree.random_thresholds = true;
        options.seed ^= 0xE7E7;
        return options;
      }()) {}

}  // namespace wym::ml
