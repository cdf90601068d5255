#include "nn/mlp.h"

#include <algorithm>
#include <cmath>

#include "la/kernels.h"
#include "util/logging.h"
#include "util/random.h"

namespace wym::nn {

namespace {

/// Adam state for one parameter tensor (flat).
struct AdamState {
  std::vector<double> m;
  std::vector<double> v;
};

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEpsilon = 1e-8;

void AdamStep(std::vector<double>* params, const std::vector<double>& grads,
              AdamState* state, double lr, double weight_decay, size_t t) {
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

}  // namespace

Mlp::Mlp(MlpOptions options) : options_(std::move(options)) {}

double Mlp::Forward(const std::vector<double>& row,
                    std::vector<std::vector<double>>* activations) const {
  WYM_CHECK_EQ(row.size(), input_dim_);
  std::vector<double> current = row;
  activations->clear();
  activations->push_back(current);
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    std::vector<double> next(layer.bias);
    for (size_t o = 0; o < layer.weights.rows(); ++o) {
      const double* w = layer.weights.Row(o);
      double sum = 0.0;
      for (size_t i = 0; i < current.size(); ++i) sum += w[i] * current[i];
      next[o] += sum;
    }
    const bool is_output = (l + 1 == layers_.size());
    if (!is_output) {
      for (double& v : next) v = std::max(0.0, v);  // ReLU
    }
    current = std::move(next);
    activations->push_back(current);
  }
  WYM_CHECK_EQ(current.size(), 1u);
  return current[0];
}

void Mlp::Fit(const la::Matrix& x, const std::vector<double>& y) {
  WYM_CHECK_EQ(x.rows(), y.size());
  WYM_CHECK_GT(x.rows(), 0u);
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

  // Per-layer Adam state.
  std::vector<AdamState> weight_state(layers_.size());
  std::vector<AdamState> bias_state(layers_.size());

  std::vector<size_t> order(x.rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  size_t step = 0;
  std::vector<std::vector<double>> activations;
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < order.size();
         start += options_.batch_size) {
      const size_t end = std::min(order.size(), start + options_.batch_size);
      const double inv_batch = 1.0 / static_cast<double>(end - start);

      // Accumulated gradients, flat per layer (weights then handled as
      // row-major grid matching la::Matrix storage).
      std::vector<std::vector<double>> grad_w(layers_.size());
      std::vector<std::vector<double>> grad_b(layers_.size());
      for (size_t l = 0; l < layers_.size(); ++l) {
        grad_w[l].assign(layers_[l].weights.data().size(), 0.0);
        grad_b[l].assign(layers_[l].bias.size(), 0.0);
      }

      for (size_t s = start; s < end; ++s) {
        const size_t row = order[s];
        const double out = Forward(x.RowVector(row), &activations);
        // d(0.5*(out-y)^2)/dout
        double delta_scalar = (out - y[row]) * inv_batch;

        // Backprop. activations[l] is the input of layer l.
        std::vector<double> delta = {delta_scalar};
        for (size_t l = layers_.size(); l-- > 0;) {
          const std::vector<double>& input = activations[l];
          Layer& layer = layers_[l];
          // Gradients of this layer.
          for (size_t o = 0; o < layer.weights.rows(); ++o) {
            const double d = delta[o];
            if (d == 0.0) continue;
            double* gw = grad_w[l].data() + o * layer.weights.cols();
            for (size_t i = 0; i < input.size(); ++i) gw[i] += d * input[i];
            grad_b[l][o] += d;
          }
          if (l == 0) break;
          // Delta for the previous layer (through this layer's weights and
          // the previous layer's ReLU).
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
      for (size_t l = 0; l < layers_.size(); ++l) {
        AdamStep(&layers_[l].weights.data(), grad_w[l], &weight_state[l],
                 options_.learning_rate, options_.weight_decay, step);
        AdamStep(&layers_[l].bias, grad_b[l], &bias_state[l],
                 options_.learning_rate, 0.0, step);
      }
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

void Mlp::PredictRows(const double* x, size_t n, double* out) const {
  WYM_CHECK(fitted_) << "Mlp used before Fit";
  WYM_CHECK(!layers_.empty() && layers_.back().weights.rows() == 1)
      << "Mlp needs a single-output last layer";
  if (n == 0) return;
  // Layer l reads one activation buffer and writes the other, so buffer
  // `a` holds the input and the odd layers' outputs, `b` the even ones'.
  size_t a_width = input_dim_;
  size_t b_width = 0;
  for (size_t l = 0; l < layers_.size(); ++l) {
    size_t& width = (l % 2 == 0) ? b_width : a_width;
    width = std::max(width, layers_[l].weights.rows());
  }
  const size_t block = std::min(n, kBlockRows);
  std::vector<double> scratch((a_width + b_width) * block);
  for (size_t start = 0; start < n; start += block) {
    const size_t lanes = std::min(block, n - start);
    double* current = scratch.data();
    double* next = current + a_width * block;
    for (size_t r = 0; r < lanes; ++r) {
      const double* row = x + (start + r) * input_dim_;
      for (size_t i = 0; i < input_dim_; ++i) current[i * lanes + r] = row[i];
    }
    for (size_t l = 0; l < layers_.size(); ++l) {
      const Layer& layer = layers_[l];
      const bool is_output = (l + 1 == layers_.size());
      la::kernels::DenseLayer(layer.weights.data().data(), layer.bias.data(),
                              layer.weights.cols(), layer.weights.rows(),
                              current, lanes, /*relu=*/!is_output, next);
      std::swap(current, next);
    }
    for (size_t r = 0; r < lanes; ++r) {
      out[start + r] = options_.clamp_output
                           ? std::clamp(current[r], -1.0, 1.0)
                           : current[r];
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
