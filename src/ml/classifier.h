#ifndef WYM_ML_CLASSIFIER_H_
#define WYM_ML_CLASSIFIER_H_

#include <string>
#include <vector>

#include "la/matrix.h"
#include "util/serde.h"

/// \file
/// Common interface of the ten interpretable binary classifiers WYM's
/// explainable matcher chooses among (paper §4.3: LR, LDA, KNN, CART, NB,
/// SVM, AdaBoost, GBM, RF, ExtraTrees).

namespace wym::ml {

/// Binary classifier over dense double features. Labels are {0, 1};
/// 1 is the matching class.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Short identifier matching the paper's Table 5 column ("LR", "LDA", ...).
  virtual const char* name() const = 0;

  /// Trains on feature rows `x` and labels `y` (x.rows() == y.size() > 0).
  virtual void Fit(const la::Matrix& x, const std::vector<int>& y) = 0;

  /// Probability of the matching class for one feature row.
  virtual double PredictProba(const std::vector<double>& row) const = 0;

  /// Hard prediction at threshold 0.5.
  int Predict(const std::vector<double>& row) const {
    return PredictProba(row) >= 0.5 ? 1 : 0;
  }

  /// Hard predictions for every row of x.
  std::vector<int> PredictBatch(const la::Matrix& x) const;

  /// Signed per-feature attribution used by the explainable matcher's
  /// inverse feature transformation (paper §4.3 "coefficients learned"),
  /// computed on demand from the fitted model and its training rows `x`;
  /// nothing of it is stored. Linear members return their exact
  /// coefficients. This default is the fitted-margin surrogate
  /// internal::SurrogateImportance over this model's PredictProba on
  /// every row of `x`.
  virtual std::vector<double> SignedImportance(const la::Matrix& x) const;

  /// True when SignedImportance returns exact model coefficients.
  virtual bool IsLinear() const { return false; }

  /// Serializes the trained state (not training hyper-parameters).
  virtual void SaveState(serde::Serializer* s) const = 0;
  /// Restores SaveState()d state for feature rows of width `dim`;
  /// returns false on malformed input, including a state of another
  /// width (a weight, moment or training-row count that differs, or a
  /// split on a feature >= dim), which would read past a row.
  virtual bool LoadState(serde::Deserializer* d, size_t dim) = 0;
};

namespace internal {

/// Surrogate signed importance for non-linear classifiers: the slope of a
/// univariate regression of the model's fitted log-odds on each feature.
/// Positive slope = feature pushes toward match, mirroring a linear
/// coefficient's reading. `probas` are the model's probabilities on the
/// rows of `x`.
std::vector<double> SurrogateImportance(const la::Matrix& x,
                                        const std::vector<double>& probas);

}  // namespace internal

}  // namespace wym::ml

#endif  // WYM_ML_CLASSIFIER_H_
