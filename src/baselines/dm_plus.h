#ifndef WYM_BASELINES_DM_PLUS_H_
#define WYM_BASELINES_DM_PLUS_H_

#include <cstdint>

#include "core/matcher.h"
#include "nn/mlp.h"

/// \file
/// DeepMatcher+ stand-in ("DM+", Table 3): per-attribute similarity
/// summaries fed to a small dense network — the attribute-summarize-then-
/// classify shape of DeepMatcher's hybrid model, at the capacity of our
/// substitute featurization.

namespace wym::baselines {

/// Options for DmPlusMatcher.
struct DmPlusOptions {
  nn::MlpOptions mlp = {.hidden = {32, 16},
                        .epochs = 30,
                        .batch_size = 32,
                        .learning_rate = 2e-3,
                        .weight_decay = 1e-5,
                        .clamp_output = true,
                        .seed = 0xD1234};
  uint64_t seed = 0xD1234;
};

/// The DM+ baseline matcher.
class DmPlusMatcher : public core::Matcher {
 public:
  using Options = DmPlusOptions;

  explicit DmPlusMatcher(Options options = {});

  const char* name() const override { return "DM+"; }
  void Fit(const data::Dataset& train,
           const data::Dataset& validation) override;
  double PredictProba(const data::EmRecord& record) const override;
  /// Best-F1 decision threshold calibrated by Fit.
  double threshold() const { return threshold_; }

 private:
  Options options_;
  nn::Mlp mlp_;
  bool fitted_ = false;
  double threshold_ = 0.5;
};

}  // namespace wym::baselines

#endif  // WYM_BASELINES_DM_PLUS_H_
