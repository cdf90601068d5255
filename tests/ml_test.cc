#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "ml/boosting.h"
#include "ml/classifier_pool.h"
#include "ml/forest.h"
#include "ml/knn.h"
#include "ml/lda.h"
#include "ml/linear.h"
#include "ml/metrics.h"
#include "ml/naive_bayes.h"
#include "ml/scaler.h"
#include "ml/tree.h"
#include "util/random.h"
#include "util/serde.h"

namespace wym::ml {
namespace {

/// Two-gaussian binary problem: feature 0 is informative (positive for
/// class 1), feature 1 is mildly informative with a negative direction,
/// feature 2 is pure noise.
struct Problem {
  la::Matrix x;
  std::vector<int> y;
};

Problem MakeProblem(size_t n, uint64_t seed) {
  Rng rng(seed);
  Problem p{la::Matrix(n, 3), std::vector<int>(n)};
  for (size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    p.y[i] = label;
    p.x.At(i, 0) = rng.Normal(label == 1 ? 1.0 : -1.0, 0.6);
    p.x.At(i, 1) = rng.Normal(label == 1 ? -0.5 : 0.5, 0.6);
    p.x.At(i, 2) = rng.Normal(0.0, 1.0);
  }
  return p;
}

double TrainAccuracy(Classifier* classifier, const Problem& p) {
  classifier->Fit(p.x, p.y);
  return Accuracy(p.y, classifier->PredictBatch(p.x));
}

// ---------------------------------------------------------------------
// Parameterized sweep over the full pool (paper §4.3: ten classifiers).
// ---------------------------------------------------------------------

class PoolTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PoolTest, FactoryProducesNamedClassifier) {
  auto classifier = MakeClassifier(GetParam(), /*seed=*/1);
  ASSERT_NE(classifier, nullptr);
  EXPECT_EQ(classifier->name(), GetParam());
}

TEST_P(PoolTest, LearnsSeparableProblem) {
  auto classifier = MakeClassifier(GetParam(), 1);
  const Problem p = MakeProblem(400, 7);
  EXPECT_GT(TrainAccuracy(classifier.get(), p), 0.85) << GetParam();
}

TEST_P(PoolTest, ProbabilitiesAreValid) {
  auto classifier = MakeClassifier(GetParam(), 1);
  const Problem p = MakeProblem(200, 3);
  classifier->Fit(p.x, p.y);
  for (size_t i = 0; i < 50; ++i) {
    const double proba = classifier->PredictProba(p.x.RowVector(i));
    EXPECT_GE(proba, 0.0) << GetParam();
    EXPECT_LE(proba, 1.0) << GetParam();
  }
}

TEST_P(PoolTest, SignedImportanceFollowsFeatureDirection) {
  auto classifier = MakeClassifier(GetParam(), 1);
  const Problem p = MakeProblem(400, 11);
  classifier->Fit(p.x, p.y);
  const std::vector<double> importance = classifier->SignedImportance();
  ASSERT_EQ(importance.size(), 3u) << GetParam();
  // Feature 0 pushes toward class 1, feature 1 away from it.
  EXPECT_GT(importance[0], 0.0) << GetParam();
  EXPECT_LT(importance[1], 0.0) << GetParam();
  EXPECT_GT(std::fabs(importance[0]), std::fabs(importance[2]))
      << GetParam();
}

TEST_P(PoolTest, RefitIsDeterministic) {
  const Problem p = MakeProblem(150, 21);
  auto a = MakeClassifier(GetParam(), 5);
  auto b = MakeClassifier(GetParam(), 5);
  a->Fit(p.x, p.y);
  b->Fit(p.x, p.y);
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_DOUBLE_EQ(a->PredictProba(p.x.RowVector(i)),
                     b->PredictProba(p.x.RowVector(i)))
        << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllPoolMembers, PoolTest,
                         ::testing::ValuesIn(PoolMemberNames()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------
// Classifier-specific behaviour.
// ---------------------------------------------------------------------

TEST(PoolFactoryTest, HasTenMembers) {
  EXPECT_EQ(PoolMemberNames().size(), 10u);
  EXPECT_EQ(MakePool(1).size(), 10u);
  EXPECT_EQ(MakeClassifier("nonsense", 1), nullptr);
}

TEST(LogisticRegressionTest, CoefficientsRecoverSigns) {
  LogisticRegression lr;
  const Problem p = MakeProblem(600, 2);
  lr.Fit(p.x, p.y);
  EXPECT_TRUE(lr.IsLinear());
  const auto w = lr.SignedImportance();
  EXPECT_GT(w[0], 0.0);
  EXPECT_LT(w[1], 0.0);
}

TEST(LinearDiscriminantTest, HandlesSingleClassGracefully) {
  LinearDiscriminant lda;
  la::Matrix x(10, 2, 1.0);
  std::vector<int> y(10, 1);
  lda.Fit(x, y);
  EXPECT_GT(lda.PredictProba({1.0, 1.0}), 0.9);
}

TEST(KnnTest, NearestNeighborWins) {
  KNearestNeighbors::Options options;
  options.k = 1;
  KNearestNeighbors knn(options);
  la::Matrix x(2, 1);
  x.At(0, 0) = 0.0;
  x.At(1, 0) = 10.0;
  knn.Fit(x, {0, 1});
  EXPECT_LT(knn.PredictProba({1.0}), 0.5);
  EXPECT_GT(knn.PredictProba({9.0}), 0.5);
}

/// The single-pair reference distance: 8 partial sums by index mod 8,
/// collapsed in the kernels' fixed tree.
double ReferenceSquaredDistance(const double* a, const double* b, size_t n) {
  double s[8] = {0.0};
  for (size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    s[i % 8] += d * d;
  }
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

/// KNearestNeighbors::PredictProba as it was with one single-pair
/// distance call per training row, kept verbatim apart from the
/// distance call: the reference the row-block kernel must reproduce.
double ReferenceKnnProba(const la::Matrix& train_x,
                         const std::vector<int>& train_y,
                         const KNearestNeighbors::Options& options,
                         const std::vector<double>& row) {
  const size_t n = train_x.rows();
  const size_t k = std::min(options.k, n);

  // Partial selection of the k smallest distances.
  std::vector<std::pair<double, int>> distances(n);
  for (size_t i = 0; i < n; ++i) {
    distances[i] = {
        ReferenceSquaredDistance(row.data(), train_x.Row(i), row.size()),
        train_y[i]};
  }
  std::nth_element(distances.begin(), distances.begin() + (k - 1),
                   distances.end());

  double vote1 = 0.0, total = 0.0;
  for (size_t i = 0; i < k; ++i) {
    const double weight =
        options.distance_weighted
            ? 1.0 / (std::sqrt(distances[i].first) + 1e-6)
            : 1.0;
    total += weight;
    if (distances[i].second == 1) vote1 += weight;
  }
  return total > 0.0 ? vote1 / total : 0.5;
}

TEST(KnnTest, BitIdenticalToReference) {
  // 83 rows x 42 features, every fourth row a copy of an earlier one so
  // distances tie, and the queries include training rows themselves.
  Rng rng(0x4E4E);
  const size_t n = 83, dim = 42;
  la::Matrix x(n, dim);
  std::vector<int> y(n);
  for (size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(rng.Uniform(0.0, 1.0) < 0.3);
    for (size_t j = 0; j < dim; ++j) {
      x.At(i, j) = i % 4 == 3 ? x.At(i / 2, j) : rng.Normal(0.0, 1.0);
    }
  }
  std::vector<std::vector<double>> queries;
  for (size_t q = 0; q < 24; ++q) {
    std::vector<double> query(dim);
    for (double& v : query) v = rng.Normal(0.0, 1.2);
    queries.push_back(query);
  }
  for (size_t i = 0; i < n; i += 7) queries.push_back(x.RowVector(i));

  for (const size_t k : {size_t{1}, size_t{5}, n, n + 3}) {
    for (const bool weighted : {true, false}) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " weighted="
                                      << weighted);
      KNearestNeighbors::Options options;
      options.k = k;
      options.distance_weighted = weighted;
      KNearestNeighbors knn(options);
      knn.Fit(x, y);

      std::stringstream stream;
      serde::Serializer s(&stream);
      knn.SaveState(&s);
      KNearestNeighbors loaded;
      serde::Deserializer d(&stream);
      ASSERT_TRUE(loaded.LoadState(&d));

      for (size_t q = 0; q < queries.size(); ++q) {
        const double expected = ReferenceKnnProba(x, y, options, queries[q]);
        const double fitted = knn.PredictProba(queries[q]);
        const double reloaded = loaded.PredictProba(queries[q]);
        // Bit-identical, not approximately equal.
        EXPECT_EQ(std::memcmp(&expected, &fitted, sizeof(double)), 0)
            << "query " << q;
        EXPECT_EQ(std::memcmp(&expected, &reloaded, sizeof(double)), 0)
            << "query " << q;
      }
    }
  }
}

TEST(KnnTest, NonFiniteQueryAnswersNaN) {
  // NaN distances would break nth_element's strict weak order; such a
  // query has no neighbours and answers NaN for the caller to handle.
  KNearestNeighbors knn;
  la::Matrix x(6, 2);
  for (size_t i = 0; i < 6; ++i) {
    x.At(i, 0) = static_cast<double>(i);
    x.At(i, 1) = -static_cast<double>(i);
  }
  knn.Fit(x, {0, 0, 0, 1, 1, 1});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isnan(knn.PredictProba({nan, 1.0})));
  EXPECT_TRUE(std::isnan(knn.PredictProba({1.0, nan})));
  // inf - inf is NaN too; a lone inf is only far away.
  la::Matrix far(2, 1);
  far.At(0, 0) = inf;
  far.At(1, 0) = 0.0;
  KNearestNeighbors::Options options;
  options.k = 1;
  KNearestNeighbors one(options);
  one.Fit(far, {1, 0});
  EXPECT_TRUE(std::isnan(one.PredictProba({inf})));
  EXPECT_LT(one.PredictProba({1.0}), 0.5);
}

TEST(DecisionTreeTest, PureSplitOnThreshold) {
  DecisionTreeClassifier dt;
  la::Matrix x(20, 1);
  std::vector<int> y(20);
  for (size_t i = 0; i < 20; ++i) {
    x.At(i, 0) = static_cast<double>(i);
    y[i] = i < 10 ? 0 : 1;
  }
  dt.Fit(x, y);
  EXPECT_LT(dt.PredictProba({3.0}), 0.1);
  EXPECT_GT(dt.PredictProba({15.0}), 0.9);
}

TEST(NaiveBayesTest, RespectsClassPriors) {
  GaussianNaiveBayes nb;
  // 90% negatives at the same location: prior should dominate at the
  // midpoint.
  la::Matrix x(100, 1);
  std::vector<int> y(100);
  Rng rng(4);
  for (size_t i = 0; i < 100; ++i) {
    y[i] = i < 10 ? 1 : 0;
    x.At(i, 0) = rng.Normal(0.0, 1.0);
  }
  nb.Fit(x, y);
  EXPECT_LT(nb.PredictProba({0.0}), 0.5);
}

TEST(LinearSvmTest, SeparatesWithMargin) {
  LinearSvm svm;
  const Problem p = MakeProblem(400, 6);
  svm.Fit(p.x, p.y);
  EXPECT_TRUE(svm.IsLinear());
  EXPECT_GT(Accuracy(p.y, svm.PredictBatch(p.x)), 0.85);
}

TEST(AdaBoostTest, BeatsSingleStumpOnInterval) {
  // y = 1 inside an interval of x0: one stump can only cut once, boosting
  // combines cuts from both sides.
  Rng rng(8);
  la::Matrix x(300, 2);
  std::vector<int> y(300);
  for (size_t i = 0; i < 300; ++i) {
    x.At(i, 0) = rng.Uniform(-1, 1);
    x.At(i, 1) = rng.Uniform(-1, 1);
    y[i] = (std::fabs(x.At(i, 0)) < 0.4) ? 1 : 0;
  }
  DecisionTreeClassifier::Options stump_options;
  stump_options.tree.max_depth = 1;
  DecisionTreeClassifier stump(stump_options);
  stump.Fit(x, y);
  AdaBoostClassifier ab;
  ab.Fit(x, y);
  EXPECT_GT(Accuracy(y, ab.PredictBatch(x)),
            Accuracy(y, stump.PredictBatch(x)) + 0.1);
}

TEST(GradientBoostingTest, MoreEstimatorsFitBetter) {
  const Problem p = MakeProblem(300, 13);
  GradientBoostingClassifier::Options small;
  small.n_estimators = 2;
  GradientBoostingClassifier::Options large;
  large.n_estimators = 60;
  GradientBoostingClassifier a(small), b(large);
  a.Fit(p.x, p.y);
  b.Fit(p.x, p.y);
  EXPECT_GE(Accuracy(p.y, b.PredictBatch(p.x)),
            Accuracy(p.y, a.PredictBatch(p.x)));
}

TEST(ForestTest, EnsembleSmoothsSingleTree) {
  const Problem p = MakeProblem(300, 19);
  RandomForestClassifier rf;
  rf.Fit(p.x, p.y);
  ExtraTreesClassifier et;
  et.Fit(p.x, p.y);
  EXPECT_GT(Accuracy(p.y, rf.PredictBatch(p.x)), 0.85);
  EXPECT_GT(Accuracy(p.y, et.PredictBatch(p.x)), 0.85);
}

TEST(RegressionTreeTest, WeightedSamplesShiftLeaf) {
  // Two points with conflicting targets: the heavier one wins the mean.
  RegressionTree tree(TreeOptions{.max_depth = 0,
                                  .min_samples_leaf = 1,
                                  .min_samples_split = 2,
                                  .max_features = 0,
                                  .random_thresholds = false});
  la::Matrix x(2, 1);
  x.At(0, 0) = 0.0;
  x.At(1, 0) = 0.0;
  Rng rng(1);
  tree.Fit(x, {0.0, 1.0}, {1.0, 3.0}, {0, 1}, &rng);
  EXPECT_NEAR(tree.Predict({0.0}), 0.75, 1e-9);
}

// ---------------------------------------------------------------------
// Metrics, scaler, calibration.
// ---------------------------------------------------------------------

TEST(MetricsTest, KnownConfusion) {
  const std::vector<int> truth = {1, 1, 1, 0, 0, 0, 0, 0};
  const std::vector<int> predicted = {1, 1, 0, 1, 0, 0, 0, 0};
  const Confusion c = Confuse(truth, predicted);
  EXPECT_EQ(c.true_positive, 2u);
  EXPECT_EQ(c.false_negative, 1u);
  EXPECT_EQ(c.false_positive, 1u);
  EXPECT_EQ(c.true_negative, 4u);
  EXPECT_NEAR(Precision(c), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(Recall(c), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(F1(c), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(Accuracy(truth, predicted), 0.75, 1e-12);
}

TEST(MetricsTest, DegenerateCasesAreZero) {
  EXPECT_DOUBLE_EQ(F1Score({0, 0}, {0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(F1Score({1, 1}, {0, 0}), 0.0);
}

TEST(MetricsTest, PerfectF1) {
  EXPECT_DOUBLE_EQ(F1Score({1, 0, 1}, {1, 0, 1}), 1.0);
}

TEST(ThresholdTest, FindsSeparatingThreshold) {
  // Positives live at 0.3+, negatives below 0.25: 0.5 would miss all
  // positives; the calibrated threshold must not.
  const std::vector<double> probas = {0.1, 0.2, 0.15, 0.22, 0.3, 0.35, 0.4};
  const std::vector<int> labels = {0, 0, 0, 0, 1, 1, 1};
  const double threshold = BestF1Threshold(probas, labels);
  EXPECT_GT(threshold, 0.22);
  EXPECT_LE(threshold, 0.3);
}

TEST(ThresholdTest, RecalibrationIsMonotoneAndAnchored) {
  const double threshold = 0.2;
  EXPECT_NEAR(RecalibrateProba(threshold, threshold), 0.5, 1e-12);
  EXPECT_NEAR(RecalibrateProba(0.0, threshold), 0.0, 1e-12);
  EXPECT_NEAR(RecalibrateProba(1.0, threshold), 1.0, 1e-12);
  double previous = -1.0;
  for (double p = 0.0; p <= 1.0; p += 0.05) {
    const double mapped = RecalibrateProba(p, threshold);
    EXPECT_GT(mapped, previous);
    previous = mapped;
  }
}

TEST(ScalerTest, StandardizesAndInverts) {
  la::Matrix x(4, 2);
  for (size_t i = 0; i < 4; ++i) {
    x.At(i, 0) = static_cast<double>(i);  // Mean 1.5.
    x.At(i, 1) = 7.0;                     // Constant column.
  }
  StandardScaler scaler;
  scaler.Fit(x);
  const la::Matrix scaled = scaler.Transform(x);
  double mean = 0.0;
  for (size_t i = 0; i < 4; ++i) mean += scaled.At(i, 0);
  EXPECT_NEAR(mean, 0.0, 1e-12);
  // Constant columns pass through with scale 1.
  EXPECT_DOUBLE_EQ(scaler.scale()[1], 1.0);
  EXPECT_DOUBLE_EQ(scaled.At(0, 1), 0.0);

  // Raw coefficients: w_raw = w_scaled / sigma.
  const auto raw = scaler.RawCoefficients({2.0, 3.0});
  EXPECT_NEAR(raw[0], 2.0 / scaler.scale()[0], 1e-12);
  EXPECT_DOUBLE_EQ(raw[1], 3.0);
}

TEST(SurrogateImportanceTest, RecoversSlopeSign) {
  la::Matrix x(50, 2);
  std::vector<double> probas(50);
  Rng rng(2);
  for (size_t i = 0; i < 50; ++i) {
    x.At(i, 0) = rng.Uniform(-1, 1);
    x.At(i, 1) = rng.Uniform(-1, 1);
    const double logit = 2.0 * x.At(i, 0) - 1.0 * x.At(i, 1);
    probas[i] = 1.0 / (1.0 + std::exp(-logit));
  }
  const auto importance = internal::SurrogateImportance(x, probas);
  EXPECT_GT(importance[0], 0.0);
  EXPECT_LT(importance[1], 0.0);
  EXPECT_GT(importance[0], std::fabs(importance[1]) * 0.8);
}

}  // namespace
}  // namespace wym::ml
