#include "core/explainable_matcher.h"

#include <utility>

#include "ml/classifier_pool.h"
#include "ml/metrics.h"
#include "util/logging.h"

namespace wym::core {

ExplainableMatcher::ExplainableMatcher(size_t num_attributes, bool simplified,
                                       Options options)
    : extractor_(num_attributes, simplified), options_(std::move(options)) {}

la::Matrix ExplainableMatcher::ToMatrix(
    const std::vector<ScoredUnitSet>& sets) const {
  la::Matrix x(sets.size(), extractor_.dim());
  for (size_t i = 0; i < sets.size(); ++i) {
    extractor_.Compute(sets[i], {x.Row(i), x.cols()});
  }
  return x;
}

std::vector<double> ExplainableMatcher::ScaledRow(
    const ScoredUnitSet& set, std::vector<double>* impacts) const {
  std::vector<double> row(extractor_.dim());
  extractor_.Compute(set, row, raw_coefficients_, impacts);
  scaler_.TransformRow(row);
  return row;
}

void ExplainableMatcher::Fit(const std::vector<ScoredUnitSet>& train,
                             const std::vector<int>& train_labels,
                             const std::vector<ScoredUnitSet>& validation,
                             const std::vector<int>& validation_labels) {
  WYM_CHECK_EQ(train.size(), train_labels.size());
  WYM_CHECK_EQ(validation.size(), validation_labels.size());
  WYM_CHECK_GT(train.size(), 0u);

  const la::Matrix raw_train = ToMatrix(train);
  scaler_.Fit(raw_train);
  const la::Matrix x_train = scaler_.Transform(raw_train);
  const la::Matrix x_val = scaler_.Transform(ToMatrix(validation));

  pool_.clear();
  if (options_.classifier.empty()) {
    pool_ = ml::MakePool(options_.seed);
  } else {
    pool_.push_back(ml::MakeClassifier(options_.classifier, options_.seed));
    WYM_CHECK(pool_[0] != nullptr)
        << "unknown classifier " << options_.classifier;
  }

  // The first member with the best calibrated F1 is kept.
  const ml::PoolFit fit =
      ml::FitPool(pool_, x_train, train_labels, x_val, validation_labels);
  thresholds_ = fit.thresholds;
  best_ = pool_[fit.best].get();
  best_validation_f1_ = fit.f1s[fit.best];
  best_threshold_ = fit.thresholds[fit.best];
  best_name_ = best_->name();
  // The one attribution of the fit: the selected member's, on the rows
  // it was trained on.
  raw_coefficients_ =
      scaler_.RawCoefficients(best_->SignedImportance(x_train));
}

double ExplainableMatcher::PredictProba(const ScoredUnitSet& set,
                                        std::vector<double>* impacts) const {
  WYM_CHECK(fitted()) << "ExplainableMatcher used before Fit";
  const double raw = best_->PredictProba(ScaledRow(set, impacts));
  return ml::RecalibrateProba(raw, best_threshold_);
}

int ExplainableMatcher::PredictWith(const ml::Classifier& classifier,
                                    const ScoredUnitSet& set) const {
  WYM_CHECK(scaler_.fitted());
  double threshold = 0.5;
  for (size_t c = 0; c < pool_.size(); ++c) {
    if (pool_[c].get() == &classifier) {
      threshold = thresholds_[c];
      break;
    }
  }
  return classifier.PredictProba(ScaledRow(set, nullptr)) >= threshold;
}

std::vector<double> ExplainableMatcher::UnitImpacts(
    const ScoredUnitSet& set) const {
  WYM_CHECK(fitted()) << "ExplainableMatcher used before Fit";
  std::vector<double> impacts;
  ScaledRow(set, &impacts);
  return impacts;
}

void ExplainableMatcher::Save(serde::Serializer* s) const {
  s->Tag("matcher/v2");
  s->U64(extractor_.num_attributes());
  s->Bool(extractor_.simplified());
  s->Bool(fitted());
  if (!fitted()) return;
  scaler_.Save(s);
  s->Str(best_name_);
  best_->SaveState(s);
  s->F64(best_validation_f1_);
  s->F64(best_threshold_);
  s->VecF64(raw_coefficients_);
}

bool ExplainableMatcher::Load(serde::Deserializer* d) {
  if (!d->Tag("matcher/v2")) return false;
  const size_t num_attributes = d->U64();
  const bool simplified = d->Bool();
  // The extractor lays out a handful of features per attribute, so a
  // damaged count is refused before it is built (cap: the encoder's).
  if (!d->ok() || num_attributes > 4096) return false;
  extractor_ = FeatureExtractor(num_attributes, simplified);
  const bool was_fitted = d->Bool();
  pool_.clear();
  best_ = nullptr;
  if (!was_fitted) return d->ok();
  // Every member state must take rows of the extractor's width: a
  // narrower one would be read past its end at the first prediction.
  const size_t dim = extractor_.dim();
  if (!scaler_.Load(d, dim)) return false;
  best_name_ = d->Str();
  auto classifier = ml::MakeClassifier(best_name_, /*seed=*/0);
  if (classifier == nullptr) return false;
  if (!classifier->LoadState(d, dim)) return false;
  best_validation_f1_ = d->F64();
  best_threshold_ = d->F64();
  raw_coefficients_ = d->VecF64();
  if (!d->ok() || raw_coefficients_.size() != dim) return false;
  pool_.push_back(std::move(classifier));
  best_ = pool_.back().get();
  thresholds_.assign(1, best_threshold_);
  return true;
}

}  // namespace wym::core
