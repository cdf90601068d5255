#include "la/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "util/logging.h"

namespace wym::la::kernels {

namespace {

// ---------------------------------------------------------------------
// Portable scalar implementations. These define the reference
// accumulation order: 8 partial sums (index mod 8, increasing index
// within each), collapsed in one fixed tree. The AVX2 path reproduces
// this order lane-for-lane, so both paths are bit-identical.
// ---------------------------------------------------------------------

inline double Reduce8(const double* s) {
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

double DotF32Scalar(const float* a, const float* b, size_t n) {
  double s[8] = {0.0};
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    for (size_t k = 0; k < 8; ++k) {
      s[k] += static_cast<double>(a[i + k]) * static_cast<double>(b[i + k]);
    }
  }
  for (; i < n; ++i) {
    s[i % 8] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return Reduce8(s);
}

double DotF64Scalar(const double* a, const double* b, size_t n) {
  double s[8] = {0.0};
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    for (size_t k = 0; k < 8; ++k) s[k] += a[i + k] * b[i + k];
  }
  for (; i < n; ++i) s[i % 8] += a[i] * b[i];
  return Reduce8(s);
}

// Reference row-block distances: per row, the 8 partial sums of the
// single-pair reduction (index mod 8, increasing index), then Reduce8.
void SqDistRowsF64Scalar(const double* query, const double* packed,
                         size_t n_rows, size_t dim, double* out) {
  for (size_t row = 0; row < n_rows; row += kRowBlock) {
    const double* block = packed + row * dim;
    const size_t lanes = std::min(kRowBlock, n_rows - row);
    for (size_t r = 0; r < lanes; ++r) {
      double s[8] = {0.0};
      for (size_t i = 0; i < dim; ++i) {
        const double d = query[i] - block[i * kRowBlock + r];
        s[i % 8] += d * d;
      }
      out[row + r] = Reduce8(s);
    }
  }
}

void AxpyF32Scalar(double scale, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    y[i] += static_cast<float>(scale * static_cast<double>(x[i]));
  }
}

void AxpyF64Scalar(double scale, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += scale * x[i];
}

void ScaleF32Scalar(double factor, float* a, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(static_cast<double>(a[i]) * factor);
  }
}

void ScaleF64Scalar(double factor, double* a, size_t n) {
  for (size_t i = 0; i < n; ++i) a[i] *= factor;
}

// Reference dense layer: one sequential chain per (output, lane) cell,
// w * x added in increasing input index onto 0.0, then bias + sum and
// std::max(0.0, v) — the scalar MLP forward pass. K outputs run side by
// side so their independent chains overlap in the pipeline; that
// interleaves chains, never reorders one. `w`, `bias` and `out` point at
// the first of the K outputs.
template <size_t K>
void DenseOutputsScalar(const double* w, const double* bias, size_t in_dim,
                        const double* x, size_t lanes, bool relu,
                        double* out) {
  for (size_t r = 0; r < lanes; ++r) {
    double s[K] = {};
    for (size_t i = 0; i < in_dim; ++i) {
      const double v = x[i * lanes + r];
#pragma GCC unroll 4
      for (size_t k = 0; k < K; ++k) s[k] += w[k * in_dim + i] * v;
    }
#pragma GCC unroll 4
    for (size_t k = 0; k < K; ++k) {
      const double cell = bias[k] + s[k];
      out[k * lanes + r] = relu ? std::max(0.0, cell) : cell;
    }
  }
}

void DenseF64Scalar(const double* w, const double* bias, size_t in_dim,
                    size_t out_dim, const double* x, size_t lanes, bool relu,
                    double* out) {
  size_t o = 0;
  for (; o + 4 <= out_dim; o += 4) {
    DenseOutputsScalar<4>(w + o * in_dim, bias + o, in_dim, x, lanes, relu,
                          out + o * lanes);
  }
  for (; o < out_dim; ++o) {
    DenseOutputsScalar<1>(w + o * in_dim, bias + o, in_dim, x, lanes, relu,
                          out + o * lanes);
  }
}

// Reference row accumulation: one Axpy per row, in row order.
void AddRowsF64Scalar(const double* weights, const double* const* rows,
                      size_t n_rows, size_t width, double* out) {
  for (size_t k = 0; k < n_rows; ++k) {
    AxpyF64Scalar(weights[k], rows[k], out, width);
  }
}

const internal::KernelTable kScalarTable = {
    DotF32Scalar,          DotF64Scalar,   SqDistRowsF64Scalar,
    AxpyF32Scalar,         AxpyF64Scalar,  ScaleF32Scalar,
    ScaleF64Scalar,        DenseF64Scalar, AddRowsF64Scalar,
};

// ---------------------------------------------------------------------
// Dispatch. Resolved once per process from WYM_SIMD + CPU detection;
// SetSimdLevel re-points the table for the parity tests.
// ---------------------------------------------------------------------

std::atomic<const internal::KernelTable*> g_table{nullptr};

SimdLevel LevelOf(const internal::KernelTable* table) {
  return table == internal::ScalarKernels() ? SimdLevel::kScalar
                                            : SimdLevel::kAvx2;
}

/// Points dispatch at the AVX2 table when `requested` is kAvx2 and the
/// table exists, at the scalar table otherwise, and counts the
/// (re-)resolution under `simd.dispatch.<level>`. That happens once per
/// process plus explicit SetSimdLevel calls, so it is off every hot path.
const internal::KernelTable* Apply(SimdLevel requested) {
  const internal::KernelTable* avx2 =
      requested == SimdLevel::kAvx2 ? internal::Avx2Kernels() : nullptr;
  const internal::KernelTable* table =
      avx2 != nullptr ? avx2 : internal::ScalarKernels();
  g_table.store(table, std::memory_order_release);
  obs::Registry::Global()
      .GetCounter(std::string("simd.dispatch.") + SimdLevelName(LevelOf(table)))
      .Add(1);
  return table;
}

const internal::KernelTable& Active() {
  const internal::KernelTable* table = g_table.load(std::memory_order_acquire);
  if (table != nullptr) return *table;
  // Static, so WYM_SIMD is read (and an unknown value reported) once
  // even when threads race to the first kernel call.
  static const SimdLevel requested =
      RequestedSimdLevel(std::getenv("WYM_SIMD"));
  return *Apply(requested);
}

}  // namespace

namespace internal {

const KernelTable* ScalarKernels() { return &kScalarTable; }

#ifndef WYM_HAVE_AVX2
const KernelTable* Avx2Kernels() { return nullptr; }
#endif

}  // namespace internal

const char* SimdLevelName(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? "avx2" : "scalar";
}

SimdLevel RequestedSimdLevel(const char* value) {
  if (value == nullptr || std::strcmp(value, "avx2") == 0) {
    return SimdLevel::kAvx2;
  }
  if (std::strcmp(value, "off") == 0 || std::strcmp(value, "scalar") == 0) {
    return SimdLevel::kScalar;
  }
  std::fprintf(stderr, "wym: ignoring WYM_SIMD='%s' (expected avx2 or off)\n",
               value);
  return SimdLevel::kAvx2;
}

SimdLevel DetectedSimdLevel() {
  return internal::Avx2Kernels() != nullptr ? SimdLevel::kAvx2
                                            : SimdLevel::kScalar;
}

SimdLevel ActiveSimdLevel() { return LevelOf(&Active()); }

SimdLevel SetSimdLevel(SimdLevel level) { return LevelOf(Apply(level)); }

double Dot(const float* a, const float* b, size_t n) {
  WYM_DCHECK(n == 0 || (a != nullptr && b != nullptr));
  return Active().dot_f32(a, b, n);
}

double Dot(const double* a, const double* b, size_t n) {
  WYM_DCHECK(n == 0 || (a != nullptr && b != nullptr));
  return Active().dot_f64(a, b, n);
}

double SquaredNorm(const float* a, size_t n) {
  WYM_DCHECK(n == 0 || a != nullptr);
  return Active().dot_f32(a, a, n);
}

double SquaredNorm(const double* a, size_t n) {
  WYM_DCHECK(n == 0 || a != nullptr);
  return Active().dot_f64(a, a, n);
}

size_t RowBlocksSize(size_t n_rows, size_t dim) {
  return (n_rows + kRowBlock - 1) / kRowBlock * kRowBlock * dim;
}

void PackRowBlocks(const double* rows, size_t n_rows, size_t dim,
                   double* packed) {
  WYM_DCHECK(n_rows == 0 || dim == 0 || (rows != nullptr && packed != nullptr));
  std::fill(packed, packed + RowBlocksSize(n_rows, dim), 0.0);
  for (size_t row = 0; row < n_rows; ++row) {
    double* block = packed + (row - row % kRowBlock) * dim + row % kRowBlock;
    for (size_t i = 0; i < dim; ++i) {
      block[i * kRowBlock] = rows[row * dim + i];
    }
  }
}

void SquaredDistances(const double* query, const double* packed,
                      size_t n_rows, size_t dim, double* out) {
  WYM_DCHECK(n_rows == 0 ||
             (out != nullptr &&
              (dim == 0 || (query != nullptr && packed != nullptr))));
  Active().sqdist_rows_f64(query, packed, n_rows, dim, out);
}

void Axpy(double scale, const float* x, float* y, size_t n) {
  WYM_DCHECK(n == 0 || (x != nullptr && y != nullptr));
  Active().axpy_f32(scale, x, y, n);
}

void Axpy(double scale, const double* x, double* y, size_t n) {
  WYM_DCHECK(n == 0 || (x != nullptr && y != nullptr));
  Active().axpy_f64(scale, x, y, n);
}

void Scale(double factor, float* a, size_t n) {
  WYM_DCHECK(n == 0 || a != nullptr);
  Active().scale_f32(factor, a, n);
}

void Scale(double factor, double* a, size_t n) {
  WYM_DCHECK(n == 0 || a != nullptr);
  Active().scale_f64(factor, a, n);
}

void SimilarityMatrix(const float* a, size_t a_rows, const float* b,
                      size_t b_rows, size_t dim, double* out) {
  WYM_DCHECK(a_rows == 0 || b_rows == 0 ||
             (dim > 0 && a != nullptr && b != nullptr && out != nullptr));
  // One relaxed increment per matrix (never per Dot): the whole-matrix
  // granularity keeps instrumentation under the <2% unit-generation
  // overhead budget (DESIGN.md "Observability").
  static obs::Counter& calls =
      obs::Registry::Global().GetCounter("kernels.similarity_matrix_calls");
  calls.Add(1);
  const internal::KernelTable& table = Active();
  // Block over rows so a block of B rows stays cache-resident while a
  // block of A rows streams over it. Each cell is one independent Dot,
  // so blocking reorders cells only — bit-identity is untouched.
  constexpr size_t kBlock = 32;
  for (size_t ib = 0; ib < a_rows; ib += kBlock) {
    const size_t i_end = ib + kBlock < a_rows ? ib + kBlock : a_rows;
    for (size_t jb = 0; jb < b_rows; jb += kBlock) {
      const size_t j_end = jb + kBlock < b_rows ? jb + kBlock : b_rows;
      for (size_t i = ib; i < i_end; ++i) {
        const float* a_row = a + i * dim;
        double* out_row = out + i * b_rows;
        for (size_t j = jb; j < j_end; ++j) {
          out_row[j] = table.dot_f32(a_row, b + j * dim, dim);
        }
      }
    }
  }
}

void DenseLayer(const double* weights, const double* bias, size_t in_dim,
                size_t out_dim, const double* x, size_t lanes, bool relu,
                double* out) {
  WYM_DCHECK(out_dim == 0 || lanes == 0 ||
             (bias != nullptr && out != nullptr &&
              (in_dim == 0 || (weights != nullptr && x != nullptr))));
  Active().dense_f64(weights, bias, in_dim, out_dim, x, lanes, relu, out);
}

void WeightedRowSum(const double* weights, size_t weight_stride,
                    const double* const* rows, size_t n_rows, size_t width,
                    double* out) {
  WYM_DCHECK(width == 0 || (out != nullptr &&
                            (n_rows == 0 ||
                             (weights != nullptr && rows != nullptr))));
  std::fill(out, out + width, 0.0);
  const internal::KernelTable& table = Active();
  // Gather the nonzero-weighted rows, a batch at a time, so the kernel's
  // inner loop has no data-dependent branch.
  constexpr size_t kGather = 128;
  double gathered_weights[kGather];
  const double* gathered_rows[kGather];
  size_t k = 0;
  while (k < n_rows) {
    size_t n = 0;
    for (; k < n_rows && n < kGather; ++k) {
      const double w = weights[k * weight_stride];
      if (w == 0.0) continue;
      gathered_weights[n] = w;
      gathered_rows[n] = rows[k];
      ++n;
    }
    if (n > 0) {
      table.add_rows_f64(gathered_weights, gathered_rows, n, width, out);
    }
  }
}

}  // namespace wym::la::kernels
