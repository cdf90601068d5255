#include "baselines/automl.h"

#include "baselines/similarity_features.h"
#include "ml/classifier_pool.h"
#include "ml/metrics.h"
#include "util/logging.h"

namespace wym::baselines {

namespace {

/// AutoML's feature view: the per-attribute similarity summaries without
/// the record-level aggregates (its encoder adapters summarize attribute
/// pairs; whole-record token statistics are a WYM/CorDEL-style signal).
std::vector<double> AutoMlFeatures(const data::EmRecord& record) {
  std::vector<double> full = RecordSimilarityFeatures(record);
  full.resize(record.left.values.size() * kPerAttributeFeatures);
  return full;
}

la::Matrix Featurize(const data::Dataset& dataset) {
  const size_t dim = dataset.schema.size() * kPerAttributeFeatures;
  la::Matrix x(dataset.size(), dim);
  for (size_t i = 0; i < dataset.size(); ++i) {
    const auto row = AutoMlFeatures(dataset.records[i]);
    for (size_t j = 0; j < dim; ++j) x.At(i, j) = row[j];
  }
  return x;
}

}  // namespace

AutoMlMatcher::AutoMlMatcher(Options options) : options_(options) {}

void AutoMlMatcher::Fit(const data::Dataset& train,
                        const data::Dataset& validation) {
  WYM_CHECK_GT(train.size(), 0u);
  const la::Matrix raw = Featurize(train);
  scaler_.Fit(raw);
  const la::Matrix x_train = scaler_.Transform(raw);
  const std::vector<int> y_train = train.Labels();

  la::Matrix x_val;
  std::vector<int> y_val;
  if (validation.size() > 0) {
    x_val = scaler_.Transform(Featurize(validation));
    y_val = validation.Labels();
  }

  const la::Matrix& x_calibration =
      validation.size() > 0 ? x_val : x_train;
  const std::vector<int>& y_calibration =
      validation.size() > 0 ? y_val : y_train;

  pool_ = ml::MakePool(options_.seed);
  best_ = nullptr;
  double best_f1 = -1.0;
  for (auto& classifier : pool_) {
    classifier->Fit(x_train, y_train);
    // AutoML systems tune the operating point along with the model.
    std::vector<double> probas(x_calibration.rows());
    for (size_t i = 0; i < probas.size(); ++i) {
      probas[i] = classifier->PredictProba(x_calibration.RowVector(i));
    }
    const double threshold = ml::BestF1Threshold(probas, y_calibration);
    std::vector<int> predicted(probas.size());
    for (size_t i = 0; i < probas.size(); ++i) {
      predicted[i] = probas[i] >= threshold ? 1 : 0;
    }
    const double f1 = ml::F1Score(y_calibration, predicted);
    if (f1 > best_f1) {
      best_f1 = f1;
      best_ = classifier.get();
      threshold_ = threshold;
    }
  }
  WYM_CHECK(best_ != nullptr);
  selected_ = best_->name();
}

double AutoMlMatcher::PredictProba(const data::EmRecord& record) const {
  WYM_CHECK(best_ != nullptr) << "AutoML used before Fit";
  std::vector<double> row = AutoMlFeatures(record);
  scaler_.TransformRow(row);
  return ml::RecalibrateProba(best_->PredictProba(row), threshold_);
}

}  // namespace wym::baselines
