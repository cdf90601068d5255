#include "ml/classifier_pool.h"

#include <string_view>
#include <utility>

#include "ml/boosting.h"
#include "ml/forest.h"
#include "ml/knn.h"
#include "ml/lda.h"
#include "ml/linear.h"
#include "ml/metrics.h"
#include "ml/naive_bayes.h"
#include "ml/tree.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace wym::ml {

namespace {

/// Pool members in Table 5 order, each with the span of its fit and
/// threshold calibration (span names must be string literals).
constexpr std::pair<std::string_view, const char*> kMembers[] = {
    {"LR", "fit.classifier.LR"},   {"LDA", "fit.classifier.LDA"},
    {"KNN", "fit.classifier.KNN"}, {"DT", "fit.classifier.DT"},
    {"NB", "fit.classifier.NB"},   {"SVM", "fit.classifier.SVM"},
    {"AB", "fit.classifier.AB"},   {"GBM", "fit.classifier.GBM"},
    {"RF", "fit.classifier.RF"},   {"ET", "fit.classifier.ET"},
};

const char* MemberSpanName(std::string_view member) {
  for (const auto& [name, span] : kMembers) {
    if (name == member) return span;
  }
  return "fit.classifier.other";
}

}  // namespace

std::vector<std::string> PoolMemberNames() {
  std::vector<std::string> names;
  for (const auto& [name, span] : kMembers) names.emplace_back(name);
  return names;
}

std::unique_ptr<Classifier> MakeClassifier(const std::string& name,
                                           uint64_t seed) {
  if (name == "LR") {
    return std::make_unique<LogisticRegression>();
  }
  if (name == "LDA") {
    return std::make_unique<LinearDiscriminant>();
  }
  if (name == "KNN") {
    return std::make_unique<KNearestNeighbors>();
  }
  if (name == "DT") {
    DecisionTreeClassifier::Options options;
    options.seed = seed;
    return std::make_unique<DecisionTreeClassifier>(options);
  }
  if (name == "NB") {
    return std::make_unique<GaussianNaiveBayes>();
  }
  if (name == "SVM") {
    LinearSvm::Options options;
    options.seed = seed;
    return std::make_unique<LinearSvm>(options);
  }
  if (name == "AB") {
    AdaBoostClassifier::Options options;
    options.seed = seed;
    return std::make_unique<AdaBoostClassifier>(options);
  }
  if (name == "GBM") {
    GradientBoostingClassifier::Options options;
    options.seed = seed;
    return std::make_unique<GradientBoostingClassifier>(options);
  }
  if (name == "RF") {
    RandomForestClassifier::Options options;
    options.seed = seed;
    return std::make_unique<RandomForestClassifier>(options);
  }
  if (name == "ET") {
    ExtraTreesClassifier::Options options;
    options.seed = seed;
    return std::make_unique<ExtraTreesClassifier>(options);
  }
  return nullptr;
}

std::vector<std::unique_ptr<Classifier>> MakePool(uint64_t seed) {
  std::vector<std::unique_ptr<Classifier>> pool;
  uint64_t salt = 0;
  for (const std::string& name : PoolMemberNames()) {
    pool.push_back(MakeClassifier(name, seed + 0x9e3779b97f4a7c15ull * ++salt));
  }
  return pool;
}

PoolFit FitPool(const std::vector<std::unique_ptr<Classifier>>& pool,
                const la::Matrix& x_train, const std::vector<int>& y_train,
                const la::Matrix& x_val, const std::vector<int>& y_val) {
  WYM_CHECK(!pool.empty());
  WYM_CHECK_EQ(x_val.rows(), y_val.size());
  // The benchmark label priors are heavily skewed (~10% matches), so
  // each member's best-F1 operating point is found on the calibration
  // rows: the validation split when present, else training.
  const bool no_validation = x_val.rows() == 0;
  const la::Matrix& x_calibration = no_validation ? x_train : x_val;
  const std::vector<int>& y_calibration = no_validation ? y_train : y_val;

  PoolFit fit{.thresholds = std::vector<double>(pool.size()),
              .f1s = std::vector<double>(pool.size())};
  util::ParallelFor(pool.size(), 1, [&](size_t c, size_t, size_t) {
    Classifier& classifier = *pool[c];
    const obs::SpanScope span(MemberSpanName(classifier.name()));
    classifier.Fit(x_train, y_train);
    std::vector<double> probas(x_calibration.rows());
    for (size_t i = 0; i < probas.size(); ++i) {
      probas[i] = classifier.PredictProba(x_calibration.RowVector(i));
    }
    fit.thresholds[c] = BestF1Threshold(probas, y_calibration);
    std::vector<int> predicted(probas.size());
    for (size_t i = 0; i < probas.size(); ++i) {
      predicted[i] = probas[i] >= fit.thresholds[c] ? 1 : 0;
    }
    fit.f1s[c] = F1Score(y_calibration, predicted);
  });
  // Selection walks the pool in order, as a sequential loop would.
  for (size_t c = 1; c < pool.size(); ++c) {
    if (fit.f1s[c] > fit.f1s[fit.best]) fit.best = c;
  }
  return fit;
}

}  // namespace wym::ml
