// AVX2 kernel path. Compiled with -mavx2 whenever the compiler supports
// the flag (the dispatcher additionally checks CPU support at runtime
// before selecting it).
//
// Bit-identity with the scalar path: the 8 partial sums of the
// reference accumulation order live in two 4-lane double accumulators,
// added in the same per-lane order and collapsed with the same fixed
// tree. Float products are widened to double before multiplying
// (exact). Multiplies and adds stay separate instructions — no FMA —
// and the TU is compiled with -ffp-contract=off so the compiler cannot
// fuse them behind our back.

#include "la/kernels.h"

#include <immintrin.h>

namespace wym::la::kernels::internal {

namespace {

inline double Reduce8(const double* s) {
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

double DotF32Avx2(const float* a, const float* b, size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();  // Elements 8j+0 .. 8j+3.
  __m256d acc_hi = _mm256_setzero_pd();  // Elements 8j+4 .. 8j+7.
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    const __m256d a_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(va));
    const __m256d b_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(vb));
    const __m256d a_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(va, 1));
    const __m256d b_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1));
    acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(a_lo, b_lo));
    acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(a_hi, b_hi));
  }
  double s[8];
  _mm256_storeu_pd(s + 0, acc_lo);
  _mm256_storeu_pd(s + 4, acc_hi);
  for (; i < n; ++i) {
    s[i % 8] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return Reduce8(s);
}

double DotF64Avx2(const double* a, const double* b, size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    acc_lo = _mm256_add_pd(
        acc_lo, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
    acc_hi = _mm256_add_pd(
        acc_hi,
        _mm256_mul_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4)));
  }
  double s[8];
  _mm256_storeu_pd(s + 0, acc_lo);
  _mm256_storeu_pd(s + 4, acc_hi);
  for (; i < n; ++i) s[i % 8] += a[i] * b[i];
  return Reduce8(s);
}

// Row-block distances, vectorized across the 4 rows of a block: acc[k]
// holds partial sum k (elements i = k mod 8) of all four rows, so each
// lane runs the scalar reference's chains — d = query[i] - row[i], then
// + d * d in increasing i — and the lanes collapse in the Reduce8 tree.
// A short last block computes its zero-padded lanes and stores only the
// live ones.
void SqDistRowsF64Avx2(const double* query, const double* packed,
                       size_t n_rows, size_t dim, double* out) {
  const size_t blocks = dim - dim % 8;
  for (size_t row = 0; row < n_rows; row += kRowBlock) {
    const double* block = packed + row * dim;
    __m256d acc[8];
#pragma GCC unroll 8
    for (size_t k = 0; k < 8; ++k) acc[k] = _mm256_setzero_pd();
    size_t i = 0;
    for (; i < blocks; i += 8) {
#pragma GCC unroll 8
      for (size_t k = 0; k < 8; ++k) {
        const __m256d d =
            _mm256_sub_pd(_mm256_broadcast_sd(query + i + k),
                          _mm256_loadu_pd(block + (i + k) * kRowBlock));
        acc[k] = _mm256_add_pd(acc[k], _mm256_mul_pd(d, d));
      }
    }
#pragma GCC unroll 8
    for (size_t k = 0; k < 8; ++k) {
      if (i + k < dim) {
        const __m256d d =
            _mm256_sub_pd(_mm256_broadcast_sd(query + i + k),
                          _mm256_loadu_pd(block + (i + k) * kRowBlock));
        acc[k] = _mm256_add_pd(acc[k], _mm256_mul_pd(d, d));
      }
    }
    const __m256d sum = _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(acc[0], acc[1]),
                      _mm256_add_pd(acc[2], acc[3])),
        _mm256_add_pd(_mm256_add_pd(acc[4], acc[5]),
                      _mm256_add_pd(acc[6], acc[7])));
    if (n_rows - row >= kRowBlock) {
      _mm256_storeu_pd(out + row, sum);
    } else {
      double lanes[kRowBlock];
      _mm256_storeu_pd(lanes, sum);
      for (size_t r = 0; row + r < n_rows; ++r) out[row + r] = lanes[r];
    }
  }
}

void AxpyF32Avx2(double scale, const float* x, float* y, size_t n) {
  const __m256d vscale = _mm256_set1_pd(scale);
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256d x_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(vx));
    const __m256d x_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(vx, 1));
    // Double product rounded back to float, then float add — the
    // elementwise semantics of the scalar path.
    const __m128 p_lo = _mm256_cvtpd_ps(_mm256_mul_pd(x_lo, vscale));
    const __m128 p_hi = _mm256_cvtpd_ps(_mm256_mul_pd(x_hi, vscale));
    const __m256 product = _mm256_set_m128(p_hi, p_lo);
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), product));
  }
  for (; i < n; ++i) {
    y[i] += static_cast<float>(scale * static_cast<double>(x[i]));
  }
}

void AxpyF64Avx2(double scale, const double* x, double* y, size_t n) {
  const __m256d vscale = _mm256_set1_pd(scale);
  const size_t blocks = n - n % 4;
  size_t i = 0;
  for (; i < blocks; i += 4) {
    const __m256d product = _mm256_mul_pd(_mm256_loadu_pd(x + i), vscale);
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), product));
  }
  for (; i < n; ++i) y[i] += scale * x[i];
}

void ScaleF32Avx2(double factor, float* a, size_t n) {
  const __m256d vfactor = _mm256_set1_pd(factor);
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256d a_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(va));
    const __m256d a_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(va, 1));
    const __m128 p_lo = _mm256_cvtpd_ps(_mm256_mul_pd(a_lo, vfactor));
    const __m128 p_hi = _mm256_cvtpd_ps(_mm256_mul_pd(a_hi, vfactor));
    _mm256_storeu_ps(a + i, _mm256_set_m128(p_hi, p_lo));
  }
  for (; i < n; ++i) {
    a[i] = static_cast<float>(static_cast<double>(a[i]) * factor);
  }
}

void ScaleF64Avx2(double factor, double* a, size_t n) {
  const __m256d vfactor = _mm256_set1_pd(factor);
  const size_t blocks = n - n % 4;
  size_t i = 0;
  for (; i < blocks; i += 4) {
    _mm256_storeu_pd(a + i, _mm256_mul_pd(_mm256_loadu_pd(a + i), vfactor));
  }
  for (; i < n; ++i) a[i] *= factor;
}

// Dense layer, vectorized across rows: a tile of K outputs x V 4-lane
// vectors (K=4, V=2 holds 8 accumulators in 16 ymm registers). Each
// weight broadcast feeds V vectors and each x load feeds K outputs;
// every lane still runs the scalar chain (0.0, then + w * x in
// increasing i with separate multiply and add, then bias + sum). A
// `partial` tile covers the last 1-3 lanes through masked loads (dead
// lanes read 0.0) and masked stores (dead lanes are never written).
// `w`, `bias` and `out` point at the tile's first output. The unroll
// pragmas keep the accumulator array in registers; without them GCC
// spills it on every iteration.
template <size_t K, size_t V, bool kPartial>
inline void DenseTileAvx2(const double* w, const double* bias, size_t in_dim,
                          const double* x, size_t lanes, size_t lane,
                          bool relu, double* out) {
  const __m256i mask = _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(lanes - lane)),
      _mm256_setr_epi64x(0, 1, 2, 3));
  __m256d acc[K][V];
#pragma GCC unroll 4
  for (size_t k = 0; k < K; ++k) {
#pragma GCC unroll 4
    for (size_t v = 0; v < V; ++v) acc[k][v] = _mm256_setzero_pd();
  }
  for (size_t i = 0; i < in_dim; ++i) {
    const double* xi = x + i * lanes + lane;
    __m256d xv[V];
#pragma GCC unroll 4
    for (size_t v = 0; v < V; ++v) {
      xv[v] = kPartial ? _mm256_maskload_pd(xi, mask)
                       : _mm256_loadu_pd(xi + 4 * v);
    }
#pragma GCC unroll 4
    for (size_t k = 0; k < K; ++k) {
      const __m256d wk = _mm256_broadcast_sd(w + k * in_dim + i);
#pragma GCC unroll 4
      for (size_t v = 0; v < V; ++v) {
        acc[k][v] = _mm256_add_pd(acc[k][v], _mm256_mul_pd(wk, xv[v]));
      }
    }
  }
  const __m256d zero = _mm256_setzero_pd();
#pragma GCC unroll 4
  for (size_t k = 0; k < K; ++k) {
    const __m256d b = _mm256_set1_pd(bias[k]);
#pragma GCC unroll 4
    for (size_t v = 0; v < V; ++v) {
      __m256d cell = _mm256_add_pd(b, acc[k][v]);
      // maxpd returns its second operand unless the first is greater,
      // so -0.0 and NaN map to +0.0 exactly like std::max(0.0, cell).
      if (relu) cell = _mm256_max_pd(cell, zero);
      double* dst = out + k * lanes + lane + 4 * v;
      if (kPartial) {
        _mm256_maskstore_pd(dst, mask, cell);
      } else {
        _mm256_storeu_pd(dst, cell);
      }
    }
  }
}

template <size_t K>
void DenseOutputsAvx2(const double* w, const double* bias, size_t in_dim,
                      const double* x, size_t lanes, bool relu, double* out) {
  size_t lane = 0;
  for (; lane + 8 <= lanes; lane += 8) {
    DenseTileAvx2<K, 2, false>(w, bias, in_dim, x, lanes, lane, relu, out);
  }
  for (; lane + 4 <= lanes; lane += 4) {
    DenseTileAvx2<K, 1, false>(w, bias, in_dim, x, lanes, lane, relu, out);
  }
  if (lane < lanes) {
    DenseTileAvx2<K, 1, true>(w, bias, in_dim, x, lanes, lane, relu, out);
  }
}

void DenseF64Avx2(const double* w, const double* bias, size_t in_dim,
                  size_t out_dim, const double* x, size_t lanes, bool relu,
                  double* out) {
  size_t o = 0;
  for (; o + 4 <= out_dim; o += 4) {
    DenseOutputsAvx2<4>(w + o * in_dim, bias + o, in_dim, x, lanes, relu,
                        out + o * lanes);
  }
  for (; o < out_dim; ++o) {
    DenseOutputsAvx2<1>(w + o * in_dim, bias + o, in_dim, x, lanes, relu,
                        out + o * lanes);
  }
}

const KernelTable kAvx2Table = {
    DotF32Avx2,  DotF64Avx2,   SqDistRowsF64Avx2, AxpyF32Avx2,
    AxpyF64Avx2, ScaleF32Avx2, ScaleF64Avx2,      DenseF64Avx2,
};

}  // namespace

const KernelTable* Avx2Kernels() {
  // This TU is only built by compilers that accept -mavx2 (GCC, Clang),
  // which all provide __builtin_cpu_supports.
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported ? &kAvx2Table : nullptr;
}

}  // namespace wym::la::kernels::internal
