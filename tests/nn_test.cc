#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "la/kernels.h"
#include "nn/mlp.h"
#include "util/random.h"
#include "util/serde.h"
#include "util/thread_pool.h"

namespace wym::nn {
namespace {

MlpOptions SmallOptions() {
  MlpOptions options;
  options.hidden = {16, 8};
  options.epochs = 200;
  options.batch_size = 16;
  options.learning_rate = 5e-3;
  options.clamp_output = false;
  options.seed = 11;
  return options;
}

TEST(MlpTest, LearnsLinearFunction) {
  Rng rng(5);
  la::Matrix x(128, 2);
  std::vector<double> y(128);
  for (size_t i = 0; i < 128; ++i) {
    x.At(i, 0) = rng.Uniform(-1, 1);
    x.At(i, 1) = rng.Uniform(-1, 1);
    y[i] = 0.5 * x.At(i, 0) - 0.3 * x.At(i, 1);
  }
  Mlp mlp(SmallOptions());
  mlp.Fit(x, y);
  double error = 0.0;
  for (size_t i = 0; i < 128; ++i) {
    error += std::fabs(mlp.Predict(x.RowVector(i)) - y[i]);
  }
  EXPECT_LT(error / 128.0, 0.08);
}

TEST(MlpTest, LearnsNonlinearXor) {
  // XOR-ish: y = 1 when signs differ, -1 otherwise. Needs a hidden layer.
  Rng rng(9);
  la::Matrix x(256, 2);
  std::vector<double> y(256);
  for (size_t i = 0; i < 256; ++i) {
    x.At(i, 0) = rng.Uniform(-1, 1);
    x.At(i, 1) = rng.Uniform(-1, 1);
    y[i] = (x.At(i, 0) * x.At(i, 1) < 0) ? 1.0 : -1.0;
  }
  MlpOptions options = SmallOptions();
  options.epochs = 400;
  Mlp mlp(options);
  mlp.Fit(x, y);
  size_t correct = 0;
  for (size_t i = 0; i < 256; ++i) {
    const double predicted = mlp.Predict(x.RowVector(i));
    if ((predicted > 0) == (y[i] > 0)) ++correct;
  }
  EXPECT_GT(correct, 230u);  // > 90%.
}

TEST(MlpTest, ClampBoundsOutput) {
  la::Matrix x(8, 1);
  std::vector<double> y(8, 100.0);  // Targets far outside [-1, 1].
  for (size_t i = 0; i < 8; ++i) x.At(i, 0) = 1.0;
  MlpOptions options = SmallOptions();
  options.clamp_output = true;
  Mlp mlp(options);
  mlp.Fit(x, y);
  EXPECT_LE(mlp.Predict({1.0}), 1.0);
  EXPECT_GE(mlp.Predict({1.0}), -1.0);
}

TEST(MlpTest, DeterministicForSeed) {
  Rng rng(3);
  la::Matrix x(32, 3);
  std::vector<double> y(32);
  for (size_t i = 0; i < 32; ++i) {
    for (size_t j = 0; j < 3; ++j) x.At(i, j) = rng.Uniform();
    y[i] = rng.Uniform();
  }
  MlpOptions options = SmallOptions();
  options.epochs = 20;
  Mlp a(options), b(options);
  a.Fit(x, y);
  b.Fit(x, y);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(a.Predict(x.RowVector(i)), b.Predict(x.RowVector(i)));
  }
}

TEST(MlpTest, PredictBatchMatchesPredict) {
  la::Matrix x(16, 2, 0.5);
  std::vector<double> y(16, 0.25);
  MlpOptions options = SmallOptions();
  options.epochs = 10;
  Mlp mlp(options);
  mlp.Fit(x, y);
  const auto batch = mlp.PredictBatch(x);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(batch[i], mlp.Predict(x.RowVector(i)));
  }
}

TEST(MlpTest, PaperTopologyTrains) {
  // The paper's 300/64/32 topology must at least fit a small dataset.
  Rng rng(17);
  la::Matrix x(64, 10);
  std::vector<double> y(64);
  for (size_t i = 0; i < 64; ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < 10; ++j) {
      x.At(i, j) = rng.Uniform(-1, 1);
      sum += x.At(i, j);
    }
    y[i] = sum > 0 ? 1.0 : -1.0;
  }
  MlpOptions options;  // Paper defaults: hidden {300, 64, 32}.
  options.epochs = 60;
  options.batch_size = 16;
  options.learning_rate = 1e-3;
  Mlp mlp(options);
  mlp.Fit(x, y);
  size_t correct = 0;
  for (size_t i = 0; i < 64; ++i) {
    if ((mlp.Predict(x.RowVector(i)) > 0) == (y[i] > 0)) ++correct;
  }
  EXPECT_GT(correct, 55u);
}

// --- Batched inference: PredictRows vs the scalar forward pass ---
//
// The nn suite is re-run by ctest with WYM_SIMD=off (see
// tests/CMakeLists.txt); the tests below also sweep both levels through
// SetSimdLevel.

using la::kernels::SimdLevel;

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  const SimdLevel detected = la::kernels::DetectedSimdLevel();
  if (detected != SimdLevel::kScalar) levels.push_back(detected);
  return levels;
}

/// Restores the ambient dispatch level when a test body returns.
class ScopedSimdLevel {
 public:
  ScopedSimdLevel() : previous_(la::kernels::ActiveSimdLevel()) {}
  ~ScopedSimdLevel() { la::kernels::SetSimdLevel(previous_); }

 private:
  SimdLevel previous_;
};

struct DenseLayerSpec {
  la::Matrix weights;  // out x in
  std::vector<double> bias;
};

/// Builds a network with the given weights through the model-file path.
Mlp NetworkFromLayers(size_t input_dim,
                      const std::vector<DenseLayerSpec>& layers, bool clamp) {
  std::stringstream stream;
  serde::Serializer s(&stream);
  s.Tag("mlp/v1");
  s.Bool(true);
  s.Bool(clamp);
  s.U64(input_dim);
  s.U64(layers.size());
  for (const DenseLayerSpec& layer : layers) {
    layer.weights.Save(&s);
    s.VecF64(layer.bias);
  }
  Mlp mlp;
  serde::Deserializer d(&stream);
  EXPECT_TRUE(mlp.Load(&d));
  return mlp;
}

/// Reads a network's layers back out of its serialized form.
std::vector<DenseLayerSpec> LayersOf(const Mlp& mlp, bool* clamp) {
  std::stringstream stream;
  serde::Serializer s(&stream);
  mlp.Save(&s);
  serde::Deserializer d(&stream);
  EXPECT_TRUE(d.Tag("mlp/v1"));
  EXPECT_TRUE(d.Bool());
  *clamp = d.Bool();
  d.U64();  // input dim
  std::vector<DenseLayerSpec> layers(d.U64());
  for (DenseLayerSpec& layer : layers) {
    EXPECT_TRUE(layer.weights.Load(&d));
    layer.bias = d.VecF64();
  }
  EXPECT_TRUE(d.ok());
  return layers;
}

/// The unbatched scalar forward pass, written out independently of the
/// library: per output, sum from 0.0 in input order, then bias + sum,
/// ReLU as std::max(0.0, v) on hidden layers, optional final clamp.
double ReferencePredict(const std::vector<DenseLayerSpec>& layers, bool clamp,
                        const double* row, size_t input_dim) {
  std::vector<double> current(row, row + input_dim);
  for (size_t l = 0; l < layers.size(); ++l) {
    const DenseLayerSpec& layer = layers[l];
    std::vector<double> next(layer.bias);
    for (size_t o = 0; o < layer.weights.rows(); ++o) {
      double sum = 0.0;
      for (size_t i = 0; i < current.size(); ++i) {
        sum += layer.weights.At(o, i) * current[i];
      }
      next[o] += sum;
      if (l + 1 < layers.size()) next[o] = std::max(0.0, next[o]);
    }
    current = std::move(next);
  }
  return clamp ? std::clamp(current[0], -1.0, 1.0) : current[0];
}

la::Matrix RandomRows(Rng* rng, size_t n, size_t dim) {
  la::Matrix x(n, dim);
  for (double& v : x.data()) v = rng->Uniform(-1.5, 1.5);
  return x;
}

// Row counts cover the empty batch, pure tails, one vector, vector +
// tail, and a T-AB-sized record spread over several blocks.
const size_t kRowCounts[] = {0, 1, 3, 4, 5, 37};

TEST(MlpPredictRowsTest, BitIdenticalToPredictAndScalarReference) {
  ScopedSimdLevel guard;
  Rng rng(21);
  // Hidden widths that are not multiples of the 4-output register tile.
  MlpOptions options = SmallOptions();
  options.hidden = {13, 6};
  options.epochs = 5;
  options.clamp_output = true;
  const la::Matrix train = RandomRows(&rng, 64, 11);
  std::vector<double> y(64);
  for (double& v : y) v = rng.Uniform(-2.0, 2.0);
  Mlp mlp(options);
  mlp.Fit(train, y);
  bool clamp = false;
  const std::vector<DenseLayerSpec> layers = LayersOf(mlp, &clamp);
  ASSERT_TRUE(clamp);

  const la::Matrix x = RandomRows(&rng, 37, 11);
  std::vector<double> reference(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    reference[r] = ReferencePredict(layers, clamp, x.Row(r), x.cols());
  }
  for (SimdLevel level : AvailableLevels()) {
    la::kernels::SetSimdLevel(level);
    for (size_t n : kRowCounts) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " level="
                                      << la::kernels::SimdLevelName(level));
      std::vector<double> batched(n + 1, 42.0);
      mlp.PredictRows(x.data().data(), n, batched.data());
      EXPECT_EQ(batched[n], 42.0);  // Nothing written past n.
      for (size_t r = 0; r < n; ++r) {
        const double single = mlp.Predict(x.RowVector(r));
        EXPECT_EQ(std::memcmp(&batched[r], &single, sizeof(double)), 0)
            << "row " << r;
        EXPECT_EQ(std::memcmp(&batched[r], &reference[r], sizeof(double)), 0)
            << "row " << r;
      }
    }
  }
}

TEST(MlpPredictRowsTest, ZerosNanAndClampMatchScalarReference) {
  ScopedSimdLevel guard;
  // Hidden layer of 5 units over 3 inputs:
  //   unit 0: bias -0.0, zero weights -> pre-ReLU sum of +-0.0 products;
  //   unit 1: products cancel exactly (x0 == x1 rows) -> exact 0.0;
  //   unit 2: always negative -> clamped to 0 by ReLU;
  //   units 3-4: large positive weights -> big activations.
  la::Matrix w1(5, 3, 0.0);
  w1.At(1, 0) = 1.0;
  w1.At(1, 1) = -1.0;
  w1.At(2, 2) = -1.0;
  w1.At(3, 0) = 7.0;
  w1.At(3, 2) = 3.0;
  w1.At(4, 1) = 9.0;
  const std::vector<double> b1 = {-0.0, 0.0, -1.0, 0.5, 0.25};
  // Output over the hidden layer: large weights push most rows past the
  // [-1, 1] clamp in both directions.
  la::Matrix w2(1, 5, 0.0);
  w2.At(0, 0) = 3.0;
  w2.At(0, 1) = -2.0;
  w2.At(0, 2) = 5.0;
  w2.At(0, 3) = 1.0;
  w2.At(0, 4) = -1.0;
  const std::vector<DenseLayerSpec> layers = {{w1, b1}, {w2, {-0.0}}};

  const double nan = std::numeric_limits<double>::quiet_NaN();
  la::Matrix x(37, 3);
  Rng rng(8);
  for (size_t r = 0; r < x.rows(); ++r) {
    const double v = rng.Uniform(-2.0, 2.0);
    x.At(r, 0) = v;
    x.At(r, 1) = (r % 3 == 0) ? v : rng.Uniform(-2.0, 2.0);
    x.At(r, 2) = (r % 5 == 0) ? -0.0 : rng.Uniform(-2.0, 2.0);
  }
  x.At(6, 2) = nan;  // NaN pre-activation: ReLU must map it to +0.0.
  x.At(7, 0) = 0.0;
  x.At(7, 1) = -0.0;
  x.At(7, 2) = 0.0;

  for (bool clamp : {false, true}) {
    const Mlp mlp = NetworkFromLayers(3, layers, clamp);
    std::vector<double> reference(x.rows());
    size_t clamped = 0;
    for (size_t r = 0; r < x.rows(); ++r) {
      reference[r] = ReferencePredict(layers, clamp, x.Row(r), x.cols());
      if (clamp && std::fabs(reference[r]) == 1.0) ++clamped;
    }
    if (clamp) {
      EXPECT_GT(clamped, 5u);  // The clamp path is really exercised.
    }
    for (SimdLevel level : AvailableLevels()) {
      la::kernels::SetSimdLevel(level);
      for (size_t n : kRowCounts) {
        SCOPED_TRACE(testing::Message()
                     << "clamp=" << clamp << " n=" << n << " level="
                     << la::kernels::SimdLevelName(level));
        std::vector<double> batched(n);
        mlp.PredictRows(x.data().data(), n, batched.data());
        for (size_t r = 0; r < n; ++r) {
          EXPECT_EQ(std::memcmp(&batched[r], &reference[r], sizeof(double)),
                    0)
              << "row " << r << ": " << batched[r] << " vs " << reference[r];
          const double single = mlp.Predict(x.RowVector(r));
          EXPECT_EQ(std::memcmp(&batched[r], &single, sizeof(double)), 0)
              << "row " << r;
        }
      }
    }
  }
}

// --- Training: the parallel minibatch loop vs the sequential loop ---

/// The sequential training loop Mlp::Fit replaced, kept verbatim as the
/// reference: one sample at a time, scalar forward pass, back-propagation
/// straight into per-batch gradient buffers, Adam. `zero_deltas` counts
/// the (sample, unit) deltas skipped for being exactly zero.
struct ReferenceAdamState {
  std::vector<double> m;
  std::vector<double> v;
};

void ReferenceAdamStep(std::vector<double>* params,
                       const std::vector<double>& grads,
                       ReferenceAdamState* state, double lr,
                       double weight_decay, size_t t) {
  constexpr double kBeta1 = 0.9;
  constexpr double kBeta2 = 0.999;
  constexpr double kEpsilon = 1e-8;
  if (state->m.empty()) {
    state->m.assign(params->size(), 0.0);
    state->v.assign(params->size(), 0.0);
  }
  const double bias1 = 1.0 - std::pow(kBeta1, static_cast<double>(t));
  const double bias2 = 1.0 - std::pow(kBeta2, static_cast<double>(t));
  for (size_t i = 0; i < params->size(); ++i) {
    const double g = grads[i] + weight_decay * (*params)[i];
    state->m[i] = kBeta1 * state->m[i] + (1.0 - kBeta1) * g;
    state->v[i] = kBeta2 * state->v[i] + (1.0 - kBeta2) * g * g;
    const double m_hat = state->m[i] / bias1;
    const double v_hat = state->v[i] / bias2;
    (*params)[i] -= lr * m_hat / (std::sqrt(v_hat) + kEpsilon);
  }
}

double ReferenceForward(const std::vector<DenseLayerSpec>& layers,
                        const std::vector<double>& row,
                        std::vector<std::vector<double>>* activations) {
  std::vector<double> current = row;
  activations->clear();
  activations->push_back(current);
  for (size_t l = 0; l < layers.size(); ++l) {
    const DenseLayerSpec& layer = layers[l];
    std::vector<double> next(layer.bias);
    for (size_t o = 0; o < layer.weights.rows(); ++o) {
      const double* w = layer.weights.Row(o);
      double sum = 0.0;
      for (size_t i = 0; i < current.size(); ++i) sum += w[i] * current[i];
      next[o] += sum;
    }
    const bool is_output = (l + 1 == layers.size());
    if (!is_output) {
      for (double& v : next) v = std::max(0.0, v);  // ReLU
    }
    current = std::move(next);
    activations->push_back(current);
  }
  return current[0];
}

std::vector<DenseLayerSpec> ReferenceFit(const MlpOptions& options,
                                         const la::Matrix& x,
                                         const std::vector<double>& y,
                                         size_t* zero_deltas) {
  const size_t input_dim = x.cols();
  Rng rng(options.seed);
  std::vector<size_t> sizes;
  sizes.push_back(input_dim);
  for (size_t h : options.hidden) sizes.push_back(h);
  sizes.push_back(1);
  std::vector<DenseLayerSpec> layers;
  for (size_t l = 0; l + 1 < sizes.size(); ++l) {
    DenseLayerSpec layer;
    layer.weights = la::Matrix(sizes[l + 1], sizes[l]);
    layer.bias.assign(sizes[l + 1], 0.0);
    const double scale = std::sqrt(2.0 / static_cast<double>(sizes[l]));
    for (size_t o = 0; o < sizes[l + 1]; ++o) {
      for (size_t i = 0; i < sizes[l]; ++i) {
        layer.weights.At(o, i) = rng.Normal(0.0, scale);
      }
    }
    layers.push_back(std::move(layer));
  }

  std::vector<ReferenceAdamState> weight_state(layers.size());
  std::vector<ReferenceAdamState> bias_state(layers.size());

  std::vector<size_t> order(x.rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  *zero_deltas = 0;
  size_t step = 0;
  std::vector<std::vector<double>> activations;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < order.size();
         start += options.batch_size) {
      const size_t end = std::min(order.size(), start + options.batch_size);
      const double inv_batch = 1.0 / static_cast<double>(end - start);

      std::vector<std::vector<double>> grad_w(layers.size());
      std::vector<std::vector<double>> grad_b(layers.size());
      for (size_t l = 0; l < layers.size(); ++l) {
        grad_w[l].assign(layers[l].weights.data().size(), 0.0);
        grad_b[l].assign(layers[l].bias.size(), 0.0);
      }

      for (size_t s = start; s < end; ++s) {
        const size_t row = order[s];
        const double out = ReferenceForward(layers, x.RowVector(row),
                                            &activations);
        double delta_scalar = (out - y[row]) * inv_batch;

        std::vector<double> delta = {delta_scalar};
        for (size_t l = layers.size(); l-- > 0;) {
          const std::vector<double>& input = activations[l];
          DenseLayerSpec& layer = layers[l];
          for (size_t o = 0; o < layer.weights.rows(); ++o) {
            const double d = delta[o];
            if (d == 0.0) {
              ++*zero_deltas;
              continue;
            }
            double* gw = grad_w[l].data() + o * layer.weights.cols();
            for (size_t i = 0; i < input.size(); ++i) gw[i] += d * input[i];
            grad_b[l][o] += d;
          }
          if (l == 0) break;
          std::vector<double> prev_delta(layer.weights.cols(), 0.0);
          for (size_t o = 0; o < layer.weights.rows(); ++o) {
            const double d = delta[o];
            if (d == 0.0) continue;
            const double* w = layer.weights.Row(o);
            for (size_t i = 0; i < prev_delta.size(); ++i) {
              prev_delta[i] += d * w[i];
            }
          }
          const std::vector<double>& prev_act = activations[l];
          for (size_t i = 0; i < prev_delta.size(); ++i) {
            if (prev_act[i] <= 0.0) prev_delta[i] = 0.0;  // ReLU'
          }
          delta = std::move(prev_delta);
        }
      }

      ++step;
      for (size_t l = 0; l < layers.size(); ++l) {
        ReferenceAdamStep(&layers[l].weights.data(), grad_w[l],
                          &weight_state[l], options.learning_rate,
                          options.weight_decay, step);
        ReferenceAdamStep(&layers[l].bias, grad_b[l], &bias_state[l],
                          options.learning_rate, 0.0, step);
      }
    }
  }
  return layers;
}

TEST(MlpFitTest, BitIdenticalToSequentialReference) {
  ScopedSimdLevel guard;
  // 203 rows: not a multiple of any batch size below nor of the 8-row
  // block. A tenth of the rows are all-zero inputs with target 0 and a
  // few are large, so units die under the high learning rate and many
  // deltas are exactly zero.
  Rng rng(31);
  la::Matrix x = RandomRows(&rng, 203, 13);
  std::vector<double> y(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    if (r % 10 == 0) {
      for (size_t i = 0; i < x.cols(); ++i) x.At(r, i) = 0.0;
      y[r] = 0.0;
      continue;
    }
    if (r % 17 == 0) {
      for (size_t i = 0; i < x.cols(); ++i) x.At(r, i) *= 40.0;
    }
    y[r] = rng.Uniform(-1.0, 1.0);
  }

  const std::vector<std::vector<size_t>> hiddens = {{64, 32}, {}, {5}};
  // Eight threads is more than most test machines have CPUs, so the
  // Team's CPU cap is exercised too.
  util::ThreadPool one(1), two(2), three(3), eight(8);
  for (const std::vector<size_t>& hidden : hiddens) {
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{128}}) {
      MlpOptions options;
      options.hidden = hidden;
      options.epochs = 2;
      options.batch_size = batch_size;
      options.learning_rate = 0.05;
      options.seed = 97 + batch_size;
      size_t zero_deltas = 0;
      const std::vector<DenseLayerSpec> reference =
          ReferenceFit(options, x, y, &zero_deltas);
      if (!hidden.empty()) {
        EXPECT_GT(zero_deltas, 0u) << "no dead units: the test lost coverage";
      }
      for (SimdLevel level : AvailableLevels()) {
        la::kernels::SetSimdLevel(level);
        for (util::ThreadPool* pool : {&one, &two, &three, &eight}) {
          SCOPED_TRACE(testing::Message()
                       << "hidden=" << hidden.size()
                       << " batch=" << batch_size
                       << " level=" << la::kernels::SimdLevelName(level)
                       << " threads=" << pool->size());
          Mlp mlp(options);
          mlp.Fit(x, y, pool);
          bool clamp = false;
          const std::vector<DenseLayerSpec> trained = LayersOf(mlp, &clamp);
          ASSERT_EQ(trained.size(), reference.size());
          for (size_t l = 0; l < trained.size(); ++l) {
            const std::vector<double>& w = trained[l].weights.data();
            const std::vector<double>& w_ref = reference[l].weights.data();
            ASSERT_EQ(w.size(), w_ref.size());
            EXPECT_EQ(std::memcmp(w.data(), w_ref.data(),
                                  w.size() * sizeof(double)),
                      0)
                << "layer " << l << " weights";
            ASSERT_EQ(trained[l].bias.size(), reference[l].bias.size());
            EXPECT_EQ(std::memcmp(trained[l].bias.data(),
                                  reference[l].bias.data(),
                                  trained[l].bias.size() * sizeof(double)),
                      0)
                << "layer " << l << " bias";
          }
        }
      }
    }
  }
}

TEST(MlpFitDeathTest, RejectsZeroBatchSize) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  la::Matrix x(4, 2, 0.5);
  std::vector<double> y(4, 0.25);
  MlpOptions options = SmallOptions();
  options.batch_size = 0;
  Mlp mlp(options);
  EXPECT_DEATH(mlp.Fit(x, y), "batch_size > 0");
}

TEST(MlpPredictRowsTest, LoadRejectsBrokenTopology) {
  la::Matrix w1(4, 3, 0.1);
  la::Matrix w2(1, 5, 0.1);  // Expects 5 inputs, layer 1 gives 4.
  std::stringstream stream;
  serde::Serializer s(&stream);
  s.Tag("mlp/v1");
  s.Bool(true);
  s.Bool(true);
  s.U64(3);
  s.U64(2);
  w1.Save(&s);
  s.VecF64(std::vector<double>(4, 0.0));
  w2.Save(&s);
  s.VecF64({0.0});
  Mlp mlp;
  serde::Deserializer d(&stream);
  EXPECT_FALSE(mlp.Load(&d));
}

}  // namespace
}  // namespace wym::nn
