#include "nn/mlp.h"

#include <algorithm>
#include <cmath>

#include "la/kernels.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"

namespace wym::nn {

namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEpsilon = 1e-8;

/// Chunks of Fit's gradient phase, each a run of (layer, output-row)
/// cells of about equal cost: enough to balance a few threads.
constexpr size_t kGradChunks = 32;

/// One Adam update of `n` parameters from their gradients, with L2 decay
/// folded into the gradient; bias1/bias2 are the step's bias
/// corrections 1 - beta^t.
void AdamUpdate(double* params, const double* grads, double* m, double* v,
                size_t n, double lr, double weight_decay, double bias1,
                double bias2) {
  for (size_t i = 0; i < n; ++i) {
    const double g = grads[i] + weight_decay * params[i];
    m[i] = kBeta1 * m[i] + (1.0 - kBeta1) * g;
    v[i] = kBeta2 * v[i] + (1.0 - kBeta2) * g * g;
    const double m_hat = m[i] / bias1;
    const double v_hat = v[i] / bias2;
    params[i] -= lr * m_hat / (std::sqrt(v_hat) + kEpsilon);
  }
}

}  // namespace

Mlp::Mlp(MlpOptions options) : options_(std::move(options)) {}

void Mlp::Fit(const la::Matrix& x, const std::vector<double>& y,
              util::ThreadPool* pool) {
  WYM_CHECK_EQ(x.rows(), y.size());
  WYM_CHECK_GT(x.rows(), 0u);
  WYM_CHECK_GT(options_.batch_size, 0u);
  input_dim_ = x.cols();

  // He-initialized layers: hidden... -> 1 linear output.
  Rng rng(options_.seed);
  std::vector<size_t> sizes;
  sizes.push_back(input_dim_);
  for (size_t h : options_.hidden) sizes.push_back(h);
  sizes.push_back(1);
  layers_.clear();
  for (size_t l = 0; l + 1 < sizes.size(); ++l) {
    Layer layer;
    layer.weights = la::Matrix(sizes[l + 1], sizes[l]);
    layer.bias.assign(sizes[l + 1], 0.0);
    const double scale = std::sqrt(2.0 / static_cast<double>(sizes[l]));
    for (size_t o = 0; o < sizes[l + 1]; ++o) {
      for (size_t i = 0; i < sizes[l]; ++i) {
        layer.weights.At(o, i) = rng.Normal(0.0, scale);
      }
    }
    layers_.push_back(std::move(layer));
  }
  const size_t n_layers = layers_.size();

  std::vector<size_t> order(x.rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  // Minibatch scratch and Adam state, sized once. Row k of hidden[l] /
  // deltas[l] is the k-th sample of the batch: layer l's post-ReLU
  // output and the loss gradient at its pre-activation. inputs[l][k]
  // points at layer l's input row of sample k (the feature row for layer
  // 0, set per minibatch; a row of hidden[l - 1] otherwise), and
  // weight_rows[l][o] at row o of layer l's weights. Adam moments are
  // flat per layer, weights in la::Matrix row-major order.
  const size_t batch = std::min(options_.batch_size, x.rows());
  std::vector<std::vector<double>> hidden(n_layers - 1);
  std::vector<std::vector<double>> deltas(n_layers);
  std::vector<std::vector<const double*>> inputs(n_layers);
  std::vector<std::vector<const double*>> weight_rows(n_layers);
  std::vector<std::vector<double>> m_w(n_layers), v_w(n_layers);
  std::vector<std::vector<double>> m_b(n_layers), v_b(n_layers);
  size_t max_inputs = 0;
  // Gradient cells (layer, output row) in layer order; cell_cost[c] is
  // the per-sample work of the cells before c, for balanced chunks.
  std::vector<std::pair<size_t, size_t>> cells;
  std::vector<size_t> cell_cost = {0};
  for (size_t l = 0; l < n_layers; ++l) {
    const la::Matrix& w = layers_[l].weights;
    if (l + 1 < n_layers) hidden[l].resize(batch * w.rows());
    deltas[l].resize(batch * w.rows());
    inputs[l].resize(batch);
    for (size_t k = 0; l > 0 && k < batch; ++k) {
      inputs[l][k] = hidden[l - 1].data() + k * w.cols();
    }
    for (size_t o = 0; o < w.rows(); ++o) weight_rows[l].push_back(w.Row(o));
    m_w[l].assign(w.data().size(), 0.0);
    v_w[l].assign(w.data().size(), 0.0);
    m_b[l].assign(w.rows(), 0.0);
    v_b[l].assign(w.rows(), 0.0);
    max_inputs = std::max(max_inputs, w.cols());
    for (size_t o = 0; o < w.rows(); ++o) {
      cells.emplace_back(l, o);
      cell_cost.push_back(cell_cost.back() + w.cols() + 1);
    }
  }
  const auto first_cell = [&](size_t chunk) -> size_t {
    const size_t target = cell_cost.back() * chunk / kGradChunks;
    return std::lower_bound(cell_cost.begin(), cell_cost.end(), target) -
           cell_cost.begin();
  };

  // One team for the whole fit: each minibatch is two short phases, so
  // the helpers stay awake between them instead of being woken twice per
  // minibatch. Phase A runs one chunk per block of kBlockRows samples,
  // phase B kGradChunks chunks of gradient cells; neither count depends
  // on the thread count, and chunking never changes a result: every
  // sample's chain and every gradient cell's chain runs whole inside one
  // chunk.
  util::Team team(pool);
  const size_t max_blocks = (batch + kBlockRows - 1) / kBlockRows;
  const auto [a_width, b_width] = BufferWidths();
  const size_t block_scratch_size = (a_width + b_width) * kBlockRows;
  std::vector<double> block_scratch(max_blocks * block_scratch_size);
  // One weight-row gradient per chunk of phase B.
  std::vector<double> grad_scratch(kGradChunks * max_inputs);

  size_t step = 0;
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < order.size();
         start += options_.batch_size) {
      const size_t* batch_rows = order.data() + start;
      const size_t rows = std::min(order.size() - start, options_.batch_size);
      const double inv_batch = 1.0 / static_cast<double>(rows);

      // (A) Forward pass and deltas, one block of samples per chunk.
      team.Run((rows + kBlockRows - 1) / kBlockRows, [&](size_t b) {
        double* current = block_scratch.data() + b * block_scratch_size;
        double* next = current + a_width * kBlockRows;
        const size_t first = b * kBlockRows;
        const size_t lanes = std::min(kBlockRows, rows - first);
        for (size_t r = 0; r < lanes; ++r) {
          const double* row = x.Row(batch_rows[first + r]);
          inputs[0][first + r] = row;
          for (size_t i = 0; i < input_dim_; ++i) {
            current[i * lanes + r] = row[i];
          }
        }
        const double* out = ForwardBlock(current, next, lanes, &hidden, first);
        for (size_t r = 0; r < lanes; ++r) {
          const size_t k = first + r;
          // d(0.5*(out-y)^2)/dout
          deltas.back()[k] = (out[r] - y[batch_rows[k]]) * inv_batch;
          // Back through layer l's weights and layer l-1's ReLU.
          for (size_t l = n_layers - 1; l > 0; --l) {
            const la::Matrix& w = layers_[l].weights;
            double* prev_delta = deltas[l - 1].data() + k * w.cols();
            la::kernels::WeightedRowSum(deltas[l].data() + k * w.rows(), 1,
                                        weight_rows[l].data(), w.rows(),
                                        w.cols(), prev_delta);
            const double* prev_act = hidden[l - 1].data() + k * w.cols();
            for (size_t i = 0; i < w.cols(); ++i) {
              if (prev_act[i] <= 0.0) prev_delta[i] = 0.0;  // ReLU'
            }
          }
        }
      });

      // (B) Gradients and the Adam step over (layer, output-row) cells:
      // each cell sums its samples in batch order, then updates its
      // weight row and bias element. Phase B reads no weights, so
      // updating them in place races with nothing.
      ++step;
      const double bias1 = 1.0 - std::pow(kBeta1, static_cast<double>(step));
      const double bias2 = 1.0 - std::pow(kBeta2, static_cast<double>(step));
      team.Run(kGradChunks, [&](size_t chunk) {
        double* gw = grad_scratch.data() + chunk * max_inputs;
        const size_t end = first_cell(chunk + 1);
        for (size_t c = first_cell(chunk); c < end; ++c) {
          const auto [l, o] = cells[c];
          la::Matrix& w = layers_[l].weights;
          const double* delta = deltas[l].data() + o;  // Stride w.rows().
          la::kernels::WeightedRowSum(delta, w.rows(), inputs[l].data(), rows,
                                      w.cols(), gw);
          double gb = 0.0;
          for (size_t k = 0; k < rows; ++k) {
            const double d = delta[k * w.rows()];
            if (d != 0.0) gb += d;
          }
          const size_t row = o * w.cols();
          AdamUpdate(w.Row(o), gw, m_w[l].data() + row, v_w[l].data() + row,
                     w.cols(), options_.learning_rate, options_.weight_decay,
                     bias1, bias2);
          AdamUpdate(&layers_[l].bias[o], &gb, &m_b[l][o], &v_b[l][o], 1,
                     options_.learning_rate, 0.0, bias1, bias2);
        }
      });
    }
  }
  fitted_ = true;
}

void Mlp::Save(serde::Serializer* s) const {
  s->Tag("mlp/v1");
  s->Bool(fitted_);
  s->Bool(options_.clamp_output);
  s->U64(input_dim_);
  s->U64(layers_.size());
  for (const Layer& layer : layers_) {
    layer.weights.Save(s);
    s->VecF64(layer.bias);
  }
}

bool Mlp::Load(serde::Deserializer* d) {
  if (!d->Tag("mlp/v1")) return false;
  fitted_ = d->Bool();
  options_.clamp_output = d->Bool();
  input_dim_ = d->U64();
  const uint64_t n_layers = d->U64();
  if (!d->ok() || n_layers > 64) return false;
  layers_.assign(n_layers, {});
  // Each layer must consume the previous layer's width and the network
  // must end in one output: PredictRows trusts this topology.
  size_t width = input_dim_;
  for (Layer& layer : layers_) {
    if (!layer.weights.Load(d)) return false;
    layer.bias = d->VecF64();
    if (!d->ok() || layer.bias.size() != layer.weights.rows() ||
        layer.weights.cols() != width) {
      return false;
    }
    width = layer.weights.rows();
  }
  if (fitted_ && (layers_.empty() || width != 1)) return false;
  return d->ok();
}

std::pair<size_t, size_t> Mlp::BufferWidths() const {
  std::pair<size_t, size_t> widths = {input_dim_, 0};
  for (size_t l = 0; l < layers_.size(); ++l) {
    size_t& width = (l % 2 == 0) ? widths.second : widths.first;
    width = std::max(width, layers_[l].weights.rows());
  }
  return widths;
}

const double* Mlp::ForwardBlock(double* current, double* next, size_t lanes,
                                std::vector<std::vector<double>>* hidden,
                                size_t first_row) const {
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const bool is_output = (l + 1 == layers_.size());
    la::kernels::DenseLayer(layer.weights.data().data(), layer.bias.data(),
                            layer.weights.cols(), layer.weights.rows(),
                            current, lanes, /*relu=*/!is_output, next);
    if (hidden != nullptr && !is_output) {
      const size_t width = layer.weights.rows();
      double* rows = (*hidden)[l].data() + first_row * width;
      for (size_t r = 0; r < lanes; ++r) {
        for (size_t o = 0; o < width; ++o) {
          rows[r * width + o] = next[o * lanes + r];
        }
      }
    }
    std::swap(current, next);
  }
  return current;
}

void Mlp::PredictRows(const double* x, size_t n, double* out) const {
  WYM_CHECK(fitted_) << "Mlp used before Fit";
  WYM_CHECK(!layers_.empty() && layers_.back().weights.rows() == 1)
      << "Mlp needs a single-output last layer";
  if (n == 0) return;
  const auto [a_width, b_width] = BufferWidths();
  const size_t block = std::min(n, kBlockRows);
  std::vector<double> scratch((a_width + b_width) * block);
  for (size_t start = 0; start < n; start += block) {
    const size_t lanes = std::min(block, n - start);
    double* current = scratch.data();
    for (size_t r = 0; r < lanes; ++r) {
      const double* row = x + (start + r) * input_dim_;
      for (size_t i = 0; i < input_dim_; ++i) current[i * lanes + r] = row[i];
    }
    const double* result = ForwardBlock(current, current + a_width * block,
                                        lanes, nullptr, 0);
    for (size_t r = 0; r < lanes; ++r) {
      out[start + r] = options_.clamp_output
                           ? std::clamp(result[r], -1.0, 1.0)
                           : result[r];
    }
  }
}

double Mlp::Predict(const std::vector<double>& row) const {
  WYM_CHECK_EQ(row.size(), input_dim_);
  double out = 0.0;
  PredictRows(row.data(), 1, &out);
  return out;
}

std::vector<double> Mlp::PredictBatch(const la::Matrix& x) const {
  WYM_CHECK_EQ(x.cols(), input_dim_);
  std::vector<double> out(x.rows());
  PredictRows(x.data().data(), x.rows(), out.data());
  return out;
}

}  // namespace wym::nn
