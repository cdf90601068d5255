#ifndef WYM_NN_MLP_H_
#define WYM_NN_MLP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "la/matrix.h"
#include "util/serde.h"
#include "util/thread_pool.h"

/// \file
/// A dense feed-forward network with ReLU hidden activations trained with
/// Adam on minibatches. This is the substrate for WYM's decision-unit
/// relevance scorer (paper §4.2: 3 hidden layers of 300/64/32 ReLU units,
/// minibatch training). The output is a single linear unit; regression
/// targets live in [-1, 1].

namespace wym::nn {

/// Training hyper-parameters.
struct MlpOptions {
  /// Hidden layer widths (paper: {300, 64, 32}).
  std::vector<size_t> hidden = {300, 64, 32};
  size_t epochs = 40;
  size_t batch_size = 256;
  double learning_rate = 3e-4;
  /// L2 weight decay.
  double weight_decay = 1e-5;
  /// Clamp network outputs to [-1, 1] at prediction time (relevance-score
  /// range, paper §3.1.2).
  bool clamp_output = true;
  uint64_t seed = 0x317a;
};

/// Multi-layer perceptron regressor.
class Mlp {
 public:
  explicit Mlp(MlpOptions options = {});

  /// Writes training row `row` (width values) to `out`. Fit calls it
  /// from several threads at once, for distinct rows and outputs.
  using RowFill = std::function<void(size_t row, double* out)>;

  /// Trains on `rows` input rows of `width` features, produced on demand
  /// by `fill`, against scalar targets `y` with MSE loss. Requires
  /// rows == y.size(), rows > 0 and batch_size > 0. No training matrix
  /// exists: each sample's row is filled into a batch_size x width
  /// minibatch scratch when its minibatch runs, so `fill` runs exactly
  /// once per row per epoch and the fit's memory does not grow with
  /// `rows` beyond the shuffle order.
  ///
  /// Each minibatch runs in two phases on one util::Team over `pool`
  /// (the global pool when nullptr), kept for the whole fit: row fills,
  /// forward passes and back-propagated deltas in parallel over blocks
  /// of kBlockRows samples (the weights are fixed within a minibatch, so
  /// samples are independent), then gradients in parallel over (layer,
  /// output-row) cells, each adding its samples in batch order
  /// (la::kernels::WeightedRowSum) and applying the Adam step to its own
  /// weight row and bias element. Every floating-point chain is the one
  /// of a plain per-sample loop, so the trained weights are
  /// bit-identical at every thread count and every SIMD level.
  void Fit(size_t rows, size_t width, const RowFill& fill,
           const std::vector<double>& y, util::ThreadPool* pool = nullptr);

  /// Fit over the rows of `x`: each fill copies one row.
  void Fit(const la::Matrix& x, const std::vector<double>& y,
           util::ThreadPool* pool = nullptr);

  /// Rows PredictRows runs through the network together: one AVX2
  /// register tile of lanes, small enough that a block's activations
  /// (under 14 KB for the relevance scorer) stay in L1.
  static constexpr size_t kBlockRows = 8;

  /// Predicts `n` rows at once: `x` holds n row-major rows of
  /// input_dim() values, `out` receives n predictions. Rows run in
  /// blocks through every layer in the lane-interleaved layout of
  /// la::kernels::DenseLayer, whose per-row arithmetic is the plain
  /// scalar forward pass — so each output is bit-identical to predicting
  /// its row alone, at every SIMD level and every n. The one inference
  /// path: Predict and PredictBatch wrap it.
  void PredictRows(const double* x, size_t n, double* out) const;

  /// Predicts a scalar for one feature row (size = input dim).
  double Predict(const std::vector<double>& row) const;

  /// Batch prediction.
  std::vector<double> PredictBatch(const la::Matrix& x) const;

  /// Serializes the trained network (topology + weights + the
  /// inference-relevant options).
  void Save(serde::Serializer* s) const;
  /// Restores a Save()d network; returns false on malformed input.
  bool Load(serde::Deserializer* d);

  bool fitted() const { return fitted_; }
  size_t input_dim() const { return input_dim_; }

 private:
  struct Layer {
    la::Matrix weights;        // out x in
    std::vector<double> bias;  // out
  };

  /// Per-lane widths of the two lane-interleaved activation buffers a
  /// block forward pass alternates between: layer l reads one and
  /// writes the other, so `first` holds the input and the odd layers'
  /// outputs, `second` the even layers' outputs.
  std::pair<size_t, size_t> BufferWidths() const;

  /// Runs `lanes` rows through every layer with la::kernels::DenseLayer.
  /// `current` holds the rows lane-interleaved and forms, with `next`,
  /// the two buffers of BufferWidths. When `hidden` is non-null, hidden
  /// layer l's activations are also stored row-major in (*hidden)[l],
  /// lane r at row `first_row + r`. Returns the buffer holding the
  /// network outputs, one per lane.
  const double* ForwardBlock(double* current, double* next, size_t lanes,
                             std::vector<std::vector<double>>* hidden,
                             size_t first_row) const;

  MlpOptions options_;
  bool fitted_ = false;
  size_t input_dim_ = 0;
  std::vector<Layer> layers_;
};

}  // namespace wym::nn

#endif  // WYM_NN_MLP_H_
