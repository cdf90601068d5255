#include "embedding/context_mixer.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/kernels.h"

namespace wym::embedding {

ContextMixer::ContextMixer(Options options) : options_(options) {}

void ContextMixer::Mix(size_t dim, la::Vec* block) const {
  const size_t n = dim == 0 ? 0 : block->size() / dim;
  if (n < 2 || options_.blend <= 0.0) return;

  // Pairwise cosine similarities from one flat kernel pass over a
  // unit-normalized copy of the rows. The rows are unit vectors
  // (BaseEmbed normalizes), but Mix is a public API — cosine is
  // scale-invariant, and all-zero rows stay zero. The context itself
  // sums the rows as given.
  const float* base = block->data();
  la::Vec packed_rows;
  la::PackUnitRows(base, n, dim, &packed_rows);
  std::vector<double> sim(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const float* row_i = packed_rows.data() + i * dim;
    for (size_t j = i + 1; j < n; ++j) {
      const double s =
          la::kernels::Dot(row_i, packed_rows.data() + j * dim, dim);
      sim[i * n + j] = sim[j * n + i] = s;
    }
  }

  la::Vec out(n * dim);
  la::Vec context(dim);
  for (size_t i = 0; i < n; ++i) {
    // Softmax attention over the other tokens.
    const double* sim_row = sim.data() + i * n;
    double max_sim = -2.0;
    for (size_t j = 0; j < n; ++j) {
      if (j != i) max_sim = std::max(max_sim, sim_row[j]);
    }
    std::fill(context.begin(), context.end(), 0.0f);
    double z = 0.0;
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double a = std::exp((sim_row[j] - max_sim) / options_.temperature);
      la::kernels::Axpy(a, base + j * dim, context.data(), dim);
      z += a;
    }
    if (z > 0.0) la::Scale(1.0 / z, &context);

    float* mixed = out.data() + i * dim;
    std::copy(base + i * dim, base + (i + 1) * dim, mixed);
    la::kernels::Scale(1.0 - options_.blend, mixed, dim);
    la::kernels::Axpy(options_.blend, context.data(), mixed, dim);
    la::Normalize(mixed, dim);
  }
  block->swap(out);
}

}  // namespace wym::embedding
