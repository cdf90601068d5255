#ifndef WYM_BASELINES_DITTO_H_
#define WYM_BASELINES_DITTO_H_

#include <cstdint>

#include "core/matcher.h"
#include "embedding/semantic_encoder.h"
#include "ml/boosting.h"

/// \file
/// DITTO stand-in (Li et al., VLDB 2021): the strongest — and opaque —
/// baseline of Table 3. DITTO serializes the record pair into one
/// sequence for a fine-tuned BERT; our stand-in combines everything the
/// other baselines see (full similarity features, contrastive signals)
/// with the fine-tuned semantic encoder's pooled-embedding similarities,
/// classified by a larger gradient-boosting model. It has no
/// interpretable read-out, matching the role the paper assigns it.

namespace wym::baselines {

/// Options for DittoMatcher.
struct DittoOptions {
  embedding::SemanticEncoderOptions encoder = {
      .mode = embedding::EncoderMode::kSiamese,
      .hash_dim = 32,
      .cooc_dim = 16,
      .cooc = {},
      .context = {},
      .siamese = {},
      .seed = 0xD1770};
  ml::GradientBoostingOptions gbm = {
      .n_estimators = 120,
      .learning_rate = 0.08,
      .tree = {.max_depth = 4,
               .min_samples_leaf = 2,
               .min_samples_split = 4,
               .max_features = 0,
               .random_thresholds = false},
      .seed = 0xD1770};
  uint64_t seed = 0xD1770;
};

/// The DITTO baseline matcher.
class DittoMatcher : public core::Matcher {
 public:
  using Options = DittoOptions;

  explicit DittoMatcher(Options options = {});

  const char* name() const override { return "DITTO"; }
  void Fit(const data::Dataset& train,
           const data::Dataset& validation) override;
  double PredictProba(const data::EmRecord& record) const override;
  /// Best-F1 decision threshold calibrated by Fit.
  double threshold() const { return threshold_; }

 private:
  std::vector<double> Features(const data::EmRecord& record) const;

  Options options_;
  embedding::SemanticEncoder encoder_;
  ml::GradientBoostingClassifier gbm_;
  size_t num_attributes_ = 0;
  bool fitted_ = false;
  double threshold_ = 0.5;
};

}  // namespace wym::baselines

#endif  // WYM_BASELINES_DITTO_H_
