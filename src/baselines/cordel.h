#ifndef WYM_BASELINES_CORDEL_H_
#define WYM_BASELINES_CORDEL_H_

#include <cstdint>

#include "core/matcher.h"
#include "ml/boosting.h"

/// \file
/// CorDEL stand-in (Wang et al., ICDM 2020): a *contrastive* matcher that
/// separates the pair into similarity evidence (shared terms) and
/// dissimilarity evidence (unique terms) and classifies their contrast.
/// This is the concept WYM's paired/unpaired units generalize (paper
/// §2.1); our stand-in builds explicit shared/unique-term signals per
/// attribute and classifies them with gradient boosting.

namespace wym::baselines {

/// Options for CordelMatcher.
struct CordelOptions {
  ml::GradientBoostingOptions gbm;
  uint64_t seed = 0xC03DE1;
};

/// The CorDEL baseline matcher.
class CordelMatcher : public core::Matcher {
 public:
  using Options = CordelOptions;

  explicit CordelMatcher(Options options = {});

  const char* name() const override { return "CorDEL"; }
  void Fit(const data::Dataset& train,
           const data::Dataset& validation) override;
  double PredictProba(const data::EmRecord& record) const override;
  /// Best-F1 decision threshold calibrated by Fit.
  double threshold() const { return threshold_; }

  /// Contrastive features of one record (exposed for tests): per
  /// attribute — shared-token count/ratio, unique-left, unique-right,
  /// best fuzzy alignment of unique tokens; plus record aggregates.
  static std::vector<double> ContrastFeatures(const data::EmRecord& record);

 private:
  Options options_;
  ml::GradientBoostingClassifier gbm_;
  bool fitted_ = false;
  double threshold_ = 0.5;
};

}  // namespace wym::baselines

#endif  // WYM_BASELINES_CORDEL_H_
