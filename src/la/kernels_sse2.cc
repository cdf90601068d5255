// SSE2 kernel path. SSE2 is part of the x86-64 baseline, so this TU
// needs no special compile flags; on non-x86 targets it compiles to a
// nullptr table and the dispatcher falls back to scalar.
//
// Bit-identity with the scalar path: every reduction keeps the same 8
// partial sums (element index mod 8) as the scalar reference — here as
// four 2-lane double accumulators — added in the same per-lane order,
// and collapses them with the same fixed tree. Float products are
// widened to double before multiplying (exact), exactly like the scalar
// code. No FMA is used anywhere.

#include "la/kernels.h"

#if defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define WYM_SSE2_AVAILABLE 1
#include <emmintrin.h>
#else
#define WYM_SSE2_AVAILABLE 0
#endif

namespace wym::la::kernels::internal {

#if WYM_SSE2_AVAILABLE

namespace {

inline double Reduce8(const double* s) {
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

// Converts float lanes {2,3} of v to double.
inline __m128d CvtHighPd(__m128 v) {
  return _mm_cvtps_pd(_mm_movehl_ps(v, v));
}

double DotF32Sse2(const float* a, const float* b, size_t n) {
  __m128d acc01 = _mm_setzero_pd();  // Elements 8j+0, 8j+1.
  __m128d acc23 = _mm_setzero_pd();
  __m128d acc45 = _mm_setzero_pd();
  __m128d acc67 = _mm_setzero_pd();
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    const __m128 va_lo = _mm_loadu_ps(a + i);
    const __m128 vb_lo = _mm_loadu_ps(b + i);
    const __m128 va_hi = _mm_loadu_ps(a + i + 4);
    const __m128 vb_hi = _mm_loadu_ps(b + i + 4);
    acc01 = _mm_add_pd(
        acc01, _mm_mul_pd(_mm_cvtps_pd(va_lo), _mm_cvtps_pd(vb_lo)));
    acc23 = _mm_add_pd(acc23, _mm_mul_pd(CvtHighPd(va_lo), CvtHighPd(vb_lo)));
    acc45 = _mm_add_pd(
        acc45, _mm_mul_pd(_mm_cvtps_pd(va_hi), _mm_cvtps_pd(vb_hi)));
    acc67 = _mm_add_pd(acc67, _mm_mul_pd(CvtHighPd(va_hi), CvtHighPd(vb_hi)));
  }
  double s[8];
  _mm_storeu_pd(s + 0, acc01);
  _mm_storeu_pd(s + 2, acc23);
  _mm_storeu_pd(s + 4, acc45);
  _mm_storeu_pd(s + 6, acc67);
  for (; i < n; ++i) {
    s[i % 8] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return Reduce8(s);
}

double DotF64Sse2(const double* a, const double* b, size_t n) {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  __m128d acc45 = _mm_setzero_pd();
  __m128d acc67 = _mm_setzero_pd();
  const size_t blocks = n - n % 8;
  size_t i = 0;
  for (; i < blocks; i += 8) {
    acc01 = _mm_add_pd(
        acc01, _mm_mul_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
    acc23 = _mm_add_pd(
        acc23, _mm_mul_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2)));
    acc45 = _mm_add_pd(
        acc45, _mm_mul_pd(_mm_loadu_pd(a + i + 4), _mm_loadu_pd(b + i + 4)));
    acc67 = _mm_add_pd(
        acc67, _mm_mul_pd(_mm_loadu_pd(a + i + 6), _mm_loadu_pd(b + i + 6)));
  }
  double s[8];
  _mm_storeu_pd(s + 0, acc01);
  _mm_storeu_pd(s + 2, acc23);
  _mm_storeu_pd(s + 4, acc45);
  _mm_storeu_pd(s + 6, acc67);
  for (; i < n; ++i) s[i % 8] += a[i] * b[i];
  return Reduce8(s);
}

// Row-block distances, vectorized across rows: each 4-row block runs as
// two 2-lane halves. acc[k] holds partial sum k (elements i = k mod 8)
// of the half's two rows, so each lane runs the scalar reference's
// chains — d = query[i] - row[i], then + d * d in increasing i — and the
// lanes collapse in the Reduce8 tree. A short last block computes its
// zero-padded lanes and stores only the live ones.
void SqDistRowsF64Sse2(const double* query, const double* packed,
                       size_t n_rows, size_t dim, double* out) {
  const size_t blocks = dim - dim % 8;
  for (size_t row = 0; row < n_rows; row += kRowBlock) {
    for (size_t half = 0; half < kRowBlock && row + half < n_rows;
         half += 2) {
      const double* lanes = packed + row * dim + half;
      __m128d acc[8];
#pragma GCC unroll 8
      for (size_t k = 0; k < 8; ++k) acc[k] = _mm_setzero_pd();
      size_t i = 0;
      for (; i < blocks; i += 8) {
#pragma GCC unroll 8
        for (size_t k = 0; k < 8; ++k) {
          const __m128d d =
              _mm_sub_pd(_mm_set1_pd(query[i + k]),
                         _mm_loadu_pd(lanes + (i + k) * kRowBlock));
          acc[k] = _mm_add_pd(acc[k], _mm_mul_pd(d, d));
        }
      }
#pragma GCC unroll 8
      for (size_t k = 0; k < 8; ++k) {
        if (i + k < dim) {
          const __m128d d =
              _mm_sub_pd(_mm_set1_pd(query[i + k]),
                         _mm_loadu_pd(lanes + (i + k) * kRowBlock));
          acc[k] = _mm_add_pd(acc[k], _mm_mul_pd(d, d));
        }
      }
      const __m128d sum =
          _mm_add_pd(_mm_add_pd(_mm_add_pd(acc[0], acc[1]),
                                _mm_add_pd(acc[2], acc[3])),
                     _mm_add_pd(_mm_add_pd(acc[4], acc[5]),
                                _mm_add_pd(acc[6], acc[7])));
      if (row + half + 1 < n_rows) {
        _mm_storeu_pd(out + row + half, sum);
      } else {
        _mm_store_sd(out + row + half, sum);
      }
    }
  }
}

void AxpyF32Sse2(double scale, const float* x, float* y, size_t n) {
  const __m128d vscale = _mm_set1_pd(scale);
  const size_t blocks = n - n % 4;
  size_t i = 0;
  for (; i < blocks; i += 4) {
    const __m128 vx = _mm_loadu_ps(x + i);
    // Double product rounded to float, then float add — elementwise, so
    // identical to the scalar semantics.
    const __m128 lo =
        _mm_cvtpd_ps(_mm_mul_pd(_mm_cvtps_pd(vx), vscale));
    const __m128 hi = _mm_cvtpd_ps(_mm_mul_pd(CvtHighPd(vx), vscale));
    const __m128 product = _mm_movelh_ps(lo, hi);
    _mm_storeu_ps(y + i, _mm_add_ps(_mm_loadu_ps(y + i), product));
  }
  for (; i < n; ++i) {
    y[i] += static_cast<float>(scale * static_cast<double>(x[i]));
  }
}

void AxpyF64Sse2(double scale, const double* x, double* y, size_t n) {
  const __m128d vscale = _mm_set1_pd(scale);
  const size_t blocks = n - n % 2;
  size_t i = 0;
  for (; i < blocks; i += 2) {
    const __m128d product = _mm_mul_pd(_mm_loadu_pd(x + i), vscale);
    _mm_storeu_pd(y + i, _mm_add_pd(_mm_loadu_pd(y + i), product));
  }
  for (; i < n; ++i) y[i] += scale * x[i];
}

void ScaleF32Sse2(double factor, float* a, size_t n) {
  const __m128d vfactor = _mm_set1_pd(factor);
  const size_t blocks = n - n % 4;
  size_t i = 0;
  for (; i < blocks; i += 4) {
    const __m128 va = _mm_loadu_ps(a + i);
    const __m128 lo = _mm_cvtpd_ps(_mm_mul_pd(_mm_cvtps_pd(va), vfactor));
    const __m128 hi = _mm_cvtpd_ps(_mm_mul_pd(CvtHighPd(va), vfactor));
    _mm_storeu_ps(a + i, _mm_movelh_ps(lo, hi));
  }
  for (; i < n; ++i) {
    a[i] = static_cast<float>(static_cast<double>(a[i]) * factor);
  }
}

void ScaleF64Sse2(double factor, double* a, size_t n) {
  const __m128d vfactor = _mm_set1_pd(factor);
  const size_t blocks = n - n % 2;
  size_t i = 0;
  for (; i < blocks; i += 2) {
    _mm_storeu_pd(a + i, _mm_mul_pd(_mm_loadu_pd(a + i), vfactor));
  }
  for (; i < n; ++i) a[i] *= factor;
}

// Dense layer, vectorized across rows: a tile of K outputs x V 2-lane
// vectors. Each weight broadcast feeds V vectors and each x load feeds K
// outputs; every lane still runs the scalar chain (0.0, then + w * x in
// increasing i with separate multiply and add, then bias + sum). The
// `partial` tile covers a single trailing lane: _mm_load_sd zeroes the
// unused lane and _mm_store_sd writes only the live one. `w`, `bias` and
// `out` point at the tile's first output. The unroll pragmas keep the
// accumulator array in registers; without them GCC spills it on every
// iteration.
template <size_t K, size_t V, bool kPartial>
inline void DenseTileSse2(const double* w, const double* bias, size_t in_dim,
                          const double* x, size_t lanes, size_t lane,
                          bool relu, double* out) {
  __m128d acc[K][V];
#pragma GCC unroll 4
  for (size_t k = 0; k < K; ++k) {
#pragma GCC unroll 4
    for (size_t v = 0; v < V; ++v) acc[k][v] = _mm_setzero_pd();
  }
  for (size_t i = 0; i < in_dim; ++i) {
    const double* xi = x + i * lanes + lane;
    __m128d xv[V];
#pragma GCC unroll 4
    for (size_t v = 0; v < V; ++v) {
      xv[v] = kPartial ? _mm_load_sd(xi) : _mm_loadu_pd(xi + 2 * v);
    }
#pragma GCC unroll 4
    for (size_t k = 0; k < K; ++k) {
      const __m128d wk = _mm_set1_pd(w[k * in_dim + i]);
#pragma GCC unroll 4
      for (size_t v = 0; v < V; ++v) {
        acc[k][v] = _mm_add_pd(acc[k][v], _mm_mul_pd(wk, xv[v]));
      }
    }
  }
  const __m128d zero = _mm_setzero_pd();
#pragma GCC unroll 4
  for (size_t k = 0; k < K; ++k) {
    const __m128d b = _mm_set1_pd(bias[k]);
#pragma GCC unroll 4
    for (size_t v = 0; v < V; ++v) {
      __m128d cell = _mm_add_pd(b, acc[k][v]);
      // maxpd returns its second operand unless the first is greater,
      // so -0.0 and NaN map to +0.0 exactly like std::max(0.0, cell).
      if (relu) cell = _mm_max_pd(cell, zero);
      double* dst = out + k * lanes + lane + 2 * v;
      if (kPartial) {
        _mm_store_sd(dst, cell);
      } else {
        _mm_storeu_pd(dst, cell);
      }
    }
  }
}

template <size_t K>
void DenseOutputsSse2(const double* w, const double* bias, size_t in_dim,
                      const double* x, size_t lanes, bool relu, double* out) {
  size_t lane = 0;
  for (; lane + 4 <= lanes; lane += 4) {
    DenseTileSse2<K, 2, false>(w, bias, in_dim, x, lanes, lane, relu, out);
  }
  for (; lane + 2 <= lanes; lane += 2) {
    DenseTileSse2<K, 1, false>(w, bias, in_dim, x, lanes, lane, relu, out);
  }
  if (lane < lanes) {
    DenseTileSse2<K, 1, true>(w, bias, in_dim, x, lanes, lane, relu, out);
  }
}

void DenseF64Sse2(const double* w, const double* bias, size_t in_dim,
                  size_t out_dim, const double* x, size_t lanes, bool relu,
                  double* out) {
  size_t o = 0;
  for (; o + 4 <= out_dim; o += 4) {
    DenseOutputsSse2<4>(w + o * in_dim, bias + o, in_dim, x, lanes, relu,
                        out + o * lanes);
  }
  for (; o < out_dim; ++o) {
    DenseOutputsSse2<1>(w + o * in_dim, bias + o, in_dim, x, lanes, relu,
                        out + o * lanes);
  }
}

const KernelTable kSse2Table = {
    DotF32Sse2,  DotF64Sse2,   SqDistRowsF64Sse2, AxpyF32Sse2,
    AxpyF64Sse2, ScaleF32Sse2, ScaleF64Sse2,      DenseF64Sse2,
};

}  // namespace

const KernelTable* Sse2Kernels() { return &kSse2Table; }

#else  // !WYM_SSE2_AVAILABLE

const KernelTable* Sse2Kernels() { return nullptr; }

#endif

}  // namespace wym::la::kernels::internal
