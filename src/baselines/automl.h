#ifndef WYM_BASELINES_AUTOML_H_
#define WYM_BASELINES_AUTOML_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/matcher.h"
#include "ml/classifier.h"
#include "ml/scaler.h"

/// \file
/// AutoML-EM stand-in (Paganelli et al., EDBT 2021): pipelines an encoder
/// featurization with automatic model selection. Our stand-in sweeps the
/// full classifier pool over the similarity features and keeps the best
/// validation-F1 model, mimicking the AutoSklearn/AutoGluon/H2O average
/// the paper reports.

namespace wym::baselines {

/// Options for AutoMlMatcher.
struct AutoMlOptions {
  uint64_t seed = 0xA070;
};

/// The AutoML baseline matcher.
class AutoMlMatcher : public core::Matcher {
 public:
  using Options = AutoMlOptions;

  explicit AutoMlMatcher(Options options = {});

  const char* name() const override { return "AutoML"; }
  void Fit(const data::Dataset& train,
           const data::Dataset& validation) override;
  double PredictProba(const data::EmRecord& record) const override;

  /// Name of the selected model (for diagnostics).
  const std::string& selected() const { return selected_; }
  /// Best-F1 decision threshold calibrated by Fit.
  double threshold() const { return threshold_; }

 private:
  Options options_;
  ml::StandardScaler scaler_;
  std::vector<std::unique_ptr<ml::Classifier>> pool_;
  ml::Classifier* best_ = nullptr;
  std::string selected_;
  double threshold_ = 0.5;
};

}  // namespace wym::baselines

#endif  // WYM_BASELINES_AUTOML_H_
