#ifndef WYM_CORE_EXPLAINABLE_MATCHER_H_
#define WYM_CORE_EXPLAINABLE_MATCHER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/feature_extractor.h"
#include "ml/classifier.h"
#include "ml/scaler.h"
#include "util/serde.h"

/// \file
/// The explainable matcher (paper §4.3): trains the pool of ten
/// interpretable classifiers on the engineered features, keeps the one
/// with the best validation F1, and computes per-unit impact scores by
/// routing the learned coefficients back through the feature statistics
/// and multiplying by the relevance scores, in the same feature pass
/// that classifies (FeatureExtractor::Compute).

namespace wym::core {

/// Options for ExplainableMatcher.
struct ExplainableMatcherOptions {
  /// Train only this pool member ("LR", "RF", ...); empty = train the
  /// whole pool and select by validation F1 as the paper does.
  std::string classifier;
  uint64_t seed = 0xBEA7;
};

/// Pool-backed binary matcher with unit-impact explanations.
class ExplainableMatcher {
 public:
  using Options = ExplainableMatcherOptions;

  /// `num_attributes`/`simplified` configure the feature extractor.
  ExplainableMatcher(size_t num_attributes, bool simplified,
                     Options options = {});

  /// Trains the pool and selects the best member by validation F1
  /// (falls back to training F1 when the validation set is empty).
  void Fit(const std::vector<ScoredUnitSet>& train,
           const std::vector<int>& train_labels,
           const std::vector<ScoredUnitSet>& validation,
           const std::vector<int>& validation_labels);

  /// Matching probability / hard prediction for one record's units.
  /// A non-null `impacts` also receives, from the same feature pass, each
  /// unit's impact score (paper §4.3, FeatureExtractor::Compute).
  /// Positive impact pushes toward match.
  double PredictProba(const ScoredUnitSet& set,
                      std::vector<double>* impacts = nullptr) const;
  int Predict(const ScoredUnitSet& set) const {
    return PredictProba(set) >= 0.5 ? 1 : 0;
  }

  /// Prediction using a specific trained pool member (Table 5).
  int PredictWith(const ml::Classifier& classifier,
                  const ScoredUnitSet& set) const;

  /// PredictProba's impacts alone: the same pass, not classified.
  std::vector<double> UnitImpacts(const ScoredUnitSet& set) const;

  const FeatureExtractor& extractor() const { return extractor_; }
  const std::string& best_name() const { return best_name_; }
  double best_validation_f1() const { return best_validation_f1_; }
  /// Calibrated decision threshold of the selected model (PredictProba
  /// already folds it in via a monotone recalibration).
  double best_threshold() const { return best_threshold_; }
  bool fitted() const { return best_ != nullptr; }

  /// The trained pool (empty when a single classifier was requested).
  const std::vector<std::unique_ptr<ml::Classifier>>& pool() const {
    return pool_;
  }

  /// Serialization: persists the *selected* classifier (not the whole
  /// pool), the scaler and the impact bookkeeping — everything inference
  /// and explanation need (see util/serde.h).
  void Save(serde::Serializer* s) const;
  bool Load(serde::Deserializer* d);

 private:
  la::Matrix ToMatrix(const std::vector<ScoredUnitSet>& sets) const;
  /// The standardized feature row of `set` (+ its unit impacts): the one
  /// feature pass behind every prediction.
  std::vector<double> ScaledRow(const ScoredUnitSet& set,
                                std::vector<double>* impacts) const;

  FeatureExtractor extractor_;
  Options options_;
  ml::StandardScaler scaler_;
  std::vector<std::unique_ptr<ml::Classifier>> pool_;
  ml::Classifier* best_ = nullptr;
  std::string best_name_;
  double best_validation_f1_ = 0.0;
  double best_threshold_ = 0.5;
  std::vector<double> thresholds_;
  /// The selected member's SignedImportance on the training rows,
  /// translated to raw feature space: computed once in Fit, and the one
  /// stored copy of the attribution (no classifier keeps one).
  std::vector<double> raw_coefficients_;
};

}  // namespace wym::core

#endif  // WYM_CORE_EXPLAINABLE_MATCHER_H_
