#ifndef WYM_ML_CLASSIFIER_POOL_H_
#define WYM_ML_CLASSIFIER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"

/// \file
/// Factory for the paper's pool of ten interpretable classifiers
/// (§4.3: LR, LDA, KNN, DT/CART, NB, SVM, AB, GBM, RF, ET), and the one
/// routine that fits a pool and selects its member by calibrated F1.

namespace wym::ml {

/// Names of the pool members in the paper's Table 5 order.
std::vector<std::string> PoolMemberNames();

/// Creates one pool member by its short name (see PoolMemberNames).
/// Returns nullptr for an unknown name. `seed` drives any stochastic
/// training inside the model.
std::unique_ptr<Classifier> MakeClassifier(const std::string& name,
                                           uint64_t seed);

/// Creates the full pool in Table 5 order.
std::vector<std::unique_ptr<Classifier>> MakePool(uint64_t seed);

/// What FitPool learned of each member, in pool order.
struct PoolFit {
  /// Each member's best-F1 decision threshold on the calibration rows.
  std::vector<double> thresholds;
  /// Each member's F1 at that threshold on the calibration rows.
  std::vector<double> f1s;
  /// Index of the first member with the strictly best F1.
  size_t best = 0;
};

/// Fits every member of `pool` on (x_train, y_train) and calibrates its
/// best-F1 threshold on (x_val, y_val), or on the training rows when
/// x_val has none. Members share no state, so they fit concurrently,
/// each into its own slot and under its fit.classifier.<NAME> span; the
/// result does not depend on the thread count.
PoolFit FitPool(const std::vector<std::unique_ptr<Classifier>>& pool,
                const la::Matrix& x_train, const std::vector<int>& y_train,
                const la::Matrix& x_val, const std::vector<int>& y_val);

}  // namespace wym::ml

#endif  // WYM_ML_CLASSIFIER_POOL_H_
