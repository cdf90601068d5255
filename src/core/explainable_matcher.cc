#include "core/explainable_matcher.h"

#include <cmath>

#include "ml/classifier_pool.h"
#include "ml/metrics.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace wym::core {

ExplainableMatcher::ExplainableMatcher(size_t num_attributes, bool simplified,
                                       Options options)
    : extractor_(num_attributes, simplified), options_(std::move(options)) {}

la::Matrix ExplainableMatcher::ToMatrix(
    const std::vector<ScoredUnitSet>& sets) const {
  la::Matrix x(sets.size(), extractor_.dim());
  for (size_t i = 0; i < sets.size(); ++i) {
    const std::vector<double> row = extractor_.Extract(sets[i]);
    for (size_t j = 0; j < row.size(); ++j) x.At(i, j) = row[j];
  }
  return x;
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
  const la::Matrix x_val =
      validation.empty() ? la::Matrix() : scaler_.Transform(ToMatrix(validation));

  pool_.clear();
  if (options_.classifier.empty()) {
    pool_ = ml::MakePool(options_.seed);
  } else {
    auto single = ml::MakeClassifier(options_.classifier, options_.seed);
    WYM_CHECK(single != nullptr)
        << "unknown classifier " << options_.classifier;
    pool_.push_back(std::move(single));
  }

  // Calibration rows: the validation split when present, else training.
  const la::Matrix& x_calibration = validation.empty() ? x_train : x_val;
  const std::vector<int>& y_calibration =
      validation.empty() ? train_labels : validation_labels;

  // Members share no state, so they fit and calibrate concurrently, each
  // into its own slot; selection then walks the pool in order, so the
  // first member with the best F1 wins exactly as in a sequential loop.
  thresholds_.assign(pool_.size(), 0.5);
  std::vector<double> f1s(pool_.size());
  util::ParallelFor(pool_.size(), 1, [&](size_t c, size_t, size_t) {
    ml::Classifier& classifier = *pool_[c];
    classifier.Fit(x_train, train_labels);
    // Decision-threshold calibration: the benchmark label priors are
    // heavily skewed (~10% matches), so each model's best-F1 operating
    // point is found on the calibration split.
    std::vector<double> probas(x_calibration.rows());
    for (size_t i = 0; i < probas.size(); ++i) {
      probas[i] = classifier.PredictProba(x_calibration.RowVector(i));
    }
    thresholds_[c] = ml::BestF1Threshold(probas, y_calibration);
    std::vector<int> predicted(probas.size());
    for (size_t i = 0; i < probas.size(); ++i) {
      predicted[i] = probas[i] >= thresholds_[c] ? 1 : 0;
    }
    f1s[c] = ml::F1Score(y_calibration, predicted);
  });
  best_ = nullptr;
  best_validation_f1_ = -1.0;
  for (size_t c = 0; c < pool_.size(); ++c) {
    if (f1s[c] > best_validation_f1_) {
      best_validation_f1_ = f1s[c];
      best_ = pool_[c].get();
      best_threshold_ = thresholds_[c];
    }
  }
  WYM_CHECK(best_ != nullptr);
  best_name_ = best_->name();
  raw_coefficients_ = scaler_.RawCoefficients(best_->SignedImportance());
}

double ExplainableMatcher::PredictProba(const ScoredUnitSet& set) const {
  WYM_CHECK(fitted()) << "ExplainableMatcher used before Fit";
  const double raw =
      best_->PredictProba(scaler_.TransformRow(extractor_.Extract(set)));
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
  return classifier.PredictProba(
             scaler_.TransformRow(extractor_.Extract(set))) >= threshold
             ? 1
             : 0;
}

std::vector<double> ExplainableMatcher::UnitImpacts(
    const ScoredUnitSet& set) const {
  WYM_CHECK(fitted()) << "ExplainableMatcher used before Fit";
  const UnitAttribution attribution = extractor_.Attribution(set);
  std::vector<double> impacts(set.size(), 0.0);
  for (size_t u = 0; u < set.size(); ++u) {
    // Paper §4.3: "the related coefficients are then multiplied by the
    // relevance score, and the results averaged". Count-style features
    // use the relevance magnitude (direction lives in the coefficient).
    double sum = 0.0;
    size_t touched = 0;
    for (const FeatureContribution& c : attribution[u]) {
      const double relevance =
          c.magnitude ? std::abs(set.scores[u]) : set.scores[u];
      sum += raw_coefficients_[c.feature] * c.weight * relevance;
      ++touched;
    }
    if (touched == 0) continue;
    impacts[u] = sum / static_cast<double>(touched);
  }
  return impacts;
}

void ExplainableMatcher::Save(serde::Serializer* s) const {
  s->Tag("matcher/v1");
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
  if (!d->Tag("matcher/v1")) return false;
  const size_t num_attributes = d->U64();
  const bool simplified = d->Bool();
  extractor_ = FeatureExtractor(num_attributes, simplified);
  const bool was_fitted = d->Bool();
  pool_.clear();
  best_ = nullptr;
  if (!was_fitted) return d->ok();
  if (!scaler_.Load(d)) return false;
  best_name_ = d->Str();
  auto classifier = ml::MakeClassifier(best_name_, /*seed=*/0);
  if (classifier == nullptr) return false;
  if (!classifier->LoadState(d)) return false;
  best_validation_f1_ = d->F64();
  best_threshold_ = d->F64();
  raw_coefficients_ = d->VecF64();
  if (!d->ok() || raw_coefficients_.size() != extractor_.dim()) return false;
  pool_.push_back(std::move(classifier));
  best_ = pool_.back().get();
  thresholds_.assign(1, best_threshold_);
  return true;
}

}  // namespace wym::core
