#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <string>
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
  const std::vector<double> importance = classifier->SignedImportance(p.x);
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

TEST_P(PoolTest, SignedImportanceMatchesPinnedBits) {
  // Each member's SignedImportance on MakeProblem(600, 11) at seed 1, as
  // %.17g. 600 rows is more than KNN's 512-row surrogate sample, so the
  // sample boundary is pinned as well as every member's bits.
  const std::map<std::string, std::vector<std::string>> pinned = {
      {"LR",
       {"3.8599649515976826", "-1.9390864855419379",
        "-0.078853421552857669"}},
      {"LDA",
       {"5.3060074092509524", "-2.6811324412806856",
        "0.074916300608905362"}},
      {"KNN",
       {"10.179350451230309", "-11.433326961217652",
        "-0.33869667827158356"}},
      {"DT",
       {"10.188332949482557", "-11.46633253547529",
        "-0.39220156864498934"}},
      {"NB",
       {"6.5867488574504405", "-7.5442000107523297",
        "-0.33888508628450859"}},
      {"SVM",
       {"2.8875566682956073", "-1.2827399437913776",
        "0.10148573810337082"}},
      {"AB",
       {"1.2989611946444857", "-1.5329413031409049",
        "-0.11862355370229415"}},
      {"GBM",
       {"2.2480881951067087", "-2.5514518575483098",
        "-0.074371300672405632"}},
      {"RF",
       {"6.1253806244744764", "-8.5341134094302493",
        "-0.11964953537074986"}},
      {"ET",
       {"1.9938010617223565", "-2.5708528878109491",
        "-0.095054804361161413"}},
  };
  auto classifier = MakeClassifier(GetParam(), 1);
  const Problem p = MakeProblem(600, 11);
  classifier->Fit(p.x, p.y);
  std::vector<std::string> actual;
  for (const double value : classifier->SignedImportance(p.x)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    actual.emplace_back(buf);
  }
  ASSERT_EQ(pinned.count(GetParam()), 1u) << GetParam();
  EXPECT_EQ(actual, pinned.at(GetParam())) << GetParam();
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

TEST(PoolFactoryTest, FitPoolMatchesSequentialReference) {
  // FitPool fits the members concurrently: each threshold and F1 must
  // equal a sequential fit-and-calibrate loop's, on the validation rows
  // and, without them, on the training rows; the first strictly best F1
  // is selected.
  const Problem train = MakeProblem(300, 4);
  const Problem val = MakeProblem(120, 5);
  for (const bool with_validation : {true, false}) {
    SCOPED_TRACE(with_validation ? "validation rows" : "training rows");
    const Problem& calibration = with_validation ? val : train;
    const auto pool = MakePool(7);
    const PoolFit fit =
        with_validation ? FitPool(pool, train.x, train.y, val.x, val.y)
                        : FitPool(pool, train.x, train.y, la::Matrix(), {});
    ASSERT_EQ(fit.thresholds.size(), pool.size());
    ASSERT_EQ(fit.f1s.size(), pool.size());
    size_t best = 0;
    for (size_t c = 0; c < pool.size(); ++c) {
      auto reference = MakePool(7);
      Classifier& member = *reference[c];
      member.Fit(train.x, train.y);
      std::vector<double> probas;
      for (size_t i = 0; i < calibration.x.rows(); ++i) {
        probas.push_back(member.PredictProba(calibration.x.RowVector(i)));
      }
      const double threshold = BestF1Threshold(probas, calibration.y);
      std::vector<int> predicted;
      for (double p : probas) predicted.push_back(p >= threshold ? 1 : 0);
      EXPECT_EQ(fit.thresholds[c], threshold) << member.name();
      EXPECT_EQ(fit.f1s[c], F1Score(calibration.y, predicted))
          << member.name();
      if (fit.f1s[c] > fit.f1s[best]) best = c;
    }
    EXPECT_EQ(fit.best, best);
  }
}

TEST(LogisticRegressionTest, CoefficientsRecoverSigns) {
  LogisticRegression lr;
  const Problem p = MakeProblem(600, 2);
  lr.Fit(p.x, p.y);
  EXPECT_TRUE(lr.IsLinear());
  const auto w = lr.SignedImportance(p.x);
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

/// The defined KNN answer: every (distance, label) pair from the
/// single-pair reference distance, fully sorted, and the first k
/// weights summed nearest first.
double ReferenceKnnProba(const la::Matrix& train_x,
                         const std::vector<int>& train_y,
                         const KNearestNeighbors::Options& options,
                         const std::vector<double>& row) {
  const size_t n = train_x.rows();
  const size_t k = std::min(options.k, n);

  std::vector<std::pair<double, int>> distances(n);
  for (size_t i = 0; i < n; ++i) {
    distances[i] = {
        ReferenceSquaredDistance(row.data(), train_x.Row(i), row.size()),
        train_y[i]};
  }
  std::sort(distances.begin(), distances.end());

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

struct KnnFixture {
  la::Matrix x;
  std::vector<int> y;
  std::vector<std::vector<double>> queries;
};

/// n rows x 42 features, every fourth row a copy of an earlier one so
/// distances tie (often across labels), and the queries include
/// training rows themselves.
KnnFixture MakeTieHeavyKnnFixture(size_t n) {
  Rng rng(0x4E4E);
  const size_t dim = 42;
  KnnFixture f{la::Matrix(n, dim), std::vector<int>(n), {}};
  for (size_t i = 0; i < n; ++i) {
    f.y[i] = static_cast<int>(rng.Uniform(0.0, 1.0) < 0.3);
    for (size_t j = 0; j < dim; ++j) {
      f.x.At(i, j) = i % 4 == 3 ? f.x.At(i / 2, j) : rng.Normal(0.0, 1.0);
    }
  }
  for (size_t q = 0; q < 24; ++q) {
    std::vector<double> query(dim);
    for (double& v : query) v = rng.Normal(0.0, 1.2);
    f.queries.push_back(query);
  }
  for (size_t i = 0; i < n; i += 7) f.queries.push_back(f.x.RowVector(i));
  return f;
}

TEST(KnnTest, BitIdenticalToReference) {
  const KnnFixture f = MakeTieHeavyKnnFixture(83);
  const la::Matrix& x = f.x;
  const std::vector<int>& y = f.y;
  const std::vector<std::vector<double>>& queries = f.queries;
  const size_t n = x.rows();

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
      ASSERT_TRUE(loaded.LoadState(&d, x.cols()));

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

TEST(KnnTest, ProbabilityIgnoresTrainingRowOrder) {
  for (const size_t n : {size_t{83}, size_t{840}}) {
    const KnnFixture f = MakeTieHeavyKnnFixture(n);
    std::vector<size_t> reversed(n);
    for (size_t i = 0; i < n; ++i) reversed[i] = n - 1 - i;
    std::vector<size_t> shuffled(n);
    for (size_t i = 0; i < n; ++i) shuffled[i] = i;
    Rng rng(n);
    rng.Shuffle(&shuffled);

    for (const size_t k : {size_t{1}, size_t{5}, n, n + 3}) {
      for (const bool weighted : {true, false}) {
        KNearestNeighbors::Options options;
        options.k = k;
        options.distance_weighted = weighted;
        KNearestNeighbors knn(options);
        knn.Fit(f.x, f.y);
        for (const auto* order : {&reversed, &shuffled}) {
          SCOPED_TRACE(testing::Message()
                       << "n=" << n << " k=" << k << " weighted=" << weighted
                       << (order == &reversed ? " reversed" : " shuffled"));
          la::Matrix x(n, f.x.cols());
          std::vector<int> y(n);
          for (size_t i = 0; i < n; ++i) {
            const size_t from = (*order)[i];
            y[i] = f.y[from];
            for (size_t j = 0; j < x.cols(); ++j) x.At(i, j) = f.x.At(from, j);
          }
          KNearestNeighbors permuted(options);
          permuted.Fit(x, y);
          for (size_t q = 0; q < f.queries.size(); ++q) {
            const double expected = knn.PredictProba(f.queries[q]);
            const double actual = permuted.PredictProba(f.queries[q]);
            EXPECT_EQ(std::memcmp(&expected, &actual, sizeof(double)), 0)
                << "query " << q;
          }
        }
      }
    }
  }
}

TEST(KnnTest, RowsInDecreasingDistanceAllEnterTheHeap) {
  // Each training row is nearer the query (the origin) than every row
  // before it, so every row evicts the current k-th nearest. Rows come
  // in equal-distance pairs labelled 1 then 0, so each pair's second
  // row also wins the label tie against its first.
  const size_t n = 300, dim = 42;
  la::Matrix x(n, dim);
  std::vector<int> y(n);
  for (size_t i = 0; i < n; ++i) {
    y[i] = i % 2 == 0 ? 1 : 0;
    for (size_t j = 0; j < dim; ++j) {
      x.At(i, j) = static_cast<double>((n - i + 1) / 2) * (j % 2 ? 0.5 : -1.0);
    }
  }
  const std::vector<double> query(dim, 0.0);
  for (const size_t k : {size_t{1}, size_t{2}, size_t{5}, size_t{64}, n}) {
    for (const bool weighted : {true, false}) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " weighted="
                                      << weighted);
      KNearestNeighbors::Options options;
      options.k = k;
      options.distance_weighted = weighted;
      KNearestNeighbors knn(options);
      knn.Fit(x, y);
      const double expected = ReferenceKnnProba(x, y, options, query);
      const double actual = knn.PredictProba(query);
      EXPECT_EQ(std::memcmp(&expected, &actual, sizeof(double)), 0);
    }
  }
  // The nearest pair ties at one distance; the tie goes to label 0.
  KNearestNeighbors::Options one;
  one.k = 1;
  KNearestNeighbors nearest(one);
  nearest.Fit(x, y);
  EXPECT_EQ(nearest.PredictProba(query), 0.0);
}

TEST(KnnTest, NonFiniteQueryAnswersNaN) {
  // NaN distances have no place in the (distance, label) order the
  // neighbour heap keeps, so they are caught before any comparison;
  // such a query has no neighbours and answers NaN for the caller to
  // handle.
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
  const PresortedFeatures presorted(x);
  tree.Fit(x, {0.0, 1.0}, {1.0, 3.0}, {0, 1}, &rng, &presorted);
  EXPECT_NEAR(tree.Predict({0.0}), 0.75, 1e-9);
}

/// The split search as it was before presorted lists: every node sorts
/// each candidate feature's (value, row) pairs. RegressionTree must grow
/// the same tree, so both serialize to the same bytes.
class SortPerNodeTree {
 public:
  explicit SortPerNodeTree(TreeOptions options) : options_(options) {}

  void Fit(const la::Matrix& x, const std::vector<double>& y,
           const std::vector<double>& weights,
           const std::vector<size_t>& indices, Rng* rng) {
    nodes_.clear();
    std::vector<size_t> working = indices;
    Grow(x, y, weights, &working, 0, working.size(), 0, rng);
  }

  std::string SaveBytes() const {
    std::ostringstream stream;
    serde::Serializer s(&stream);
    s.Tag("tree/v1");
    s.U64(nodes_.size());
    for (const Node& node : nodes_) {
      s.I64(node.feature);
      s.F64(node.threshold);
      s.I64(node.left);
      s.I64(node.right);
      s.F64(node.value);
    }
    return stream.str();
  }

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    double value = 0.0;
  };

  int Grow(const la::Matrix& x, const std::vector<double>& y,
           const std::vector<double>& weights, std::vector<size_t>* indices,
           size_t begin, size_t end, size_t depth, Rng* rng) {
    const int node_id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    double sum = 0.0, total = 0.0;
    for (size_t i = begin; i < end; ++i) {
      const size_t idx = (*indices)[i];
      const double w = weights.empty() ? 1.0 : weights[idx];
      sum += w * y[idx];
      total += w;
    }
    nodes_[node_id].value = total > 0.0 ? sum / total : 0.0;

    const size_t count = end - begin;
    if (depth >= options_.max_depth || count < options_.min_samples_split) {
      return node_id;
    }
    double w_total = 0.0, wy_total = 0.0, wyy_total = 0.0;
    for (size_t i = begin; i < end; ++i) {
      const size_t idx = (*indices)[i];
      const double w = weights.empty() ? 1.0 : weights[idx];
      const double v = y[idx];
      w_total += w;
      wy_total += w * v;
      wyy_total += w * v * v;
    }
    if (w_total <= 0.0) return node_id;
    const double parent_sse = wyy_total - wy_total * wy_total / w_total;
    if (parent_sse <= 1e-12) return node_id;

    const size_t d = x.cols();
    std::vector<size_t> features(d);
    for (size_t j = 0; j < d; ++j) features[j] = j;
    size_t feature_count = d;
    if (options_.max_features > 0 && options_.max_features < d) {
      rng->Shuffle(&features);
      feature_count = options_.max_features;
    }

    int best_feature = -1;
    double best_threshold = 0.0;
    double best_gain = 1e-12;
    std::vector<std::pair<double, size_t>> sorted;
    for (size_t f = 0; f < feature_count; ++f) {
      const size_t feature = features[f];
      sorted.clear();
      for (size_t i = begin; i < end; ++i) {
        const size_t idx = (*indices)[i];
        sorted.emplace_back(x.At(idx, feature), idx);
      }
      std::sort(sorted.begin(), sorted.end());
      if (sorted.front().first == sorted.back().first) continue;
      double wl = 0.0, wyl = 0.0, wyyl = 0.0;
      for (size_t i = 0; i + 1 < sorted.size(); ++i) {
        const size_t idx = sorted[i].second;
        const double w = weights.empty() ? 1.0 : weights[idx];
        const double v = y[idx];
        wl += w;
        wyl += w * v;
        wyyl += w * v * v;
        if (sorted[i].first == sorted[i + 1].first) continue;
        const size_t left_count = i + 1;
        const size_t right_count = count - left_count;
        if (left_count < options_.min_samples_leaf ||
            right_count < options_.min_samples_leaf) {
          continue;
        }
        const double wr = w_total - wl;
        if (wl <= 0.0 || wr <= 0.0) continue;
        const double left_sse = wyyl - wyl * wyl / wl;
        const double wyr = wy_total - wyl;
        const double wyyr = wyy_total - wyyl;
        const double right_sse = wyyr - wyr * wyr / wr;
        const double gain = parent_sse - left_sse - right_sse;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(feature);
          best_threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
        }
      }
    }
    if (best_feature < 0) return node_id;

    auto middle = std::partition(
        indices->begin() + begin, indices->begin() + end,
        [&](size_t idx) { return x.At(idx, best_feature) <= best_threshold; });
    const size_t split = static_cast<size_t>(middle - indices->begin());
    if (split == begin || split == end) return node_id;
    nodes_[node_id].feature = best_feature;
    nodes_[node_id].threshold = best_threshold;
    const int left = Grow(x, y, weights, indices, begin, split, depth + 1, rng);
    nodes_[node_id].left = left;
    const int right = Grow(x, y, weights, indices, split, end, depth + 1, rng);
    nodes_[node_id].right = right;
    return node_id;
  }

  TreeOptions options_;
  std::vector<Node> nodes_;
};

std::string TreeBytes(const RegressionTree& tree) {
  std::ostringstream stream;
  serde::Serializer s(&stream);
  tree.Save(&s);
  return stream.str();
}

TEST(RegressionTreeTest, PresortedGrowthEqualsSortPerNode) {
  // Random matrices with heavy ties (few distinct levels, constant
  // columns, 0.0 beside -0.0), 0/1 or real targets, AdaBoost-style
  // weights, bootstrap repeats and subsets, and the option edges. Three
  // trees per matrix share one PresortedFeatures, as in a boosted Fit.
  size_t splits = 0, bootstraps = 0;
  for (uint64_t seed = 1; seed <= 80; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    const size_t n = 2 + rng.Index(90);
    const size_t d = 1 + rng.Index(7);
    la::Matrix x(n, d);
    for (size_t f = 0; f < d; ++f) {
      const size_t levels = rng.Index(5);  // 0 = continuous.
      const bool constant = rng.Index(8) == 0;
      for (size_t r = 0; r < n; ++r) {
        double v = levels == 0 ? rng.Uniform(-1, 1)
                               : 0.5 * static_cast<double>(rng.Index(levels));
        if (constant) v = 0.25;
        if (v == 0.0 && rng.Index(2) == 0) v = -0.0;
        x.At(r, f) = v;
      }
    }
    const bool real_targets = rng.Index(2) == 0;
    std::vector<double> y(n);
    for (double& v : y) {
      v = real_targets ? rng.Uniform(-1, 1)
                       : static_cast<double>(rng.Index(2));
    }
    std::vector<double> weights;
    if (rng.Index(2) == 0) {
      weights.resize(n);
      double total = 0.0;
      for (double& w : weights) total += (w = std::exp(rng.Uniform(-2, 2)));
      for (double& w : weights) w /= total;
      if (rng.Index(4) == 0) weights[rng.Index(n)] = 0.0;
    }
    const PresortedFeatures presorted(x);
    for (int t = 0; t < 3; ++t) {
      TreeOptions options;
      options.max_depth = std::vector<size_t>{0, 1, 2, 3, 10}[rng.Index(5)];
      options.min_samples_leaf = std::vector<size_t>{1, 2, 5}[rng.Index(3)];
      options.min_samples_split = std::vector<size_t>{2, 4, 10}[rng.Index(3)];
      options.max_features = std::vector<size_t>{0, 1, d / 2 + 1, d + 1}
          [rng.Index(4)];
      std::vector<size_t> indices;
      switch (rng.Index(3)) {
        case 0:
          for (size_t i = 0; i < n; ++i) indices.push_back(i);
          break;
        case 1:
          for (size_t i = 0; i < n; ++i) indices.push_back(rng.Index(n));
          ++bootstraps;
          break;
        default:
          for (size_t i = 0; i < n; ++i) {
            if (rng.Index(3) != 0) indices.push_back(i);
          }
          if (indices.empty()) indices.push_back(rng.Index(n));
      }
      const uint64_t tree_seed = seed * 131 + t;
      Rng reference_rng(tree_seed), rng_under_test(tree_seed);
      SortPerNodeTree reference(options);
      reference.Fit(x, y, weights, indices, &reference_rng);
      RegressionTree tree(options);
      tree.Fit(x, y, weights, indices, &rng_under_test, &presorted);
      ASSERT_EQ(TreeBytes(tree), reference.SaveBytes()) << "tree " << t;
      splits += tree.node_count() / 2;
    }
  }
  EXPECT_GT(splits, 200u) << "too few splits: the test lost coverage";
  EXPECT_GT(bootstraps, 30u);
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
