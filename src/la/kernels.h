#ifndef WYM_LA_KERNELS_H_
#define WYM_LA_KERNELS_H_

#include <cstddef>

/// \file
/// Vectorized inner-loop kernels with runtime SIMD dispatch.
///
/// Every kernel is implemented twice — the portable scalar reference
/// and AVX2 — and both paths are **bit-identical**: reductions
/// accumulate into a fixed set of 8 partial sums (partial sum k holds
/// the elements whose index is congruent to k mod 8, added in
/// increasing index order) and collapse them in one fixed tree order,
/// so the result does not depend on the selected path or the thread
/// count. Products of float inputs are formed in double (exact) and
/// accumulated in double, matching the precision of the scalar code the
/// kernels replaced. The kernel translation units are compiled with
/// `-ffp-contract=off` so no path silently fuses multiply-add.
/// DenseLayer and SquaredDistances vectorize across rows instead of
/// along their reductions; their contracts are stated at their
/// declarations.
///
/// The path is chosen once per process: AVX2 when it was compiled in
/// and the CPU supports it, scalar otherwise. `WYM_SIMD=off` pins the
/// scalar path; `WYM_SIMD=avx2` asks for the default. See DESIGN.md
/// "Kernel layer & runtime dispatch".

namespace wym::la::kernels {

/// Dispatchable implementation levels, in increasing capability.
enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,
};

/// Printable name ("scalar" / "avx2").
const char* SimdLevelName(SimdLevel level);

/// The level a WYM_SIMD value asks for (nullptr = unset): "off" and
/// "scalar" ask for kScalar; "avx2" and unset ask for kAvx2, which the
/// dispatcher clamps to DetectedSimdLevel(). Any other value also asks
/// for kAvx2 and prints one `wym:` line on stderr.
SimdLevel RequestedSimdLevel(const char* value);

/// Best level compiled into this binary and supported by this CPU.
SimdLevel DetectedSimdLevel();

/// The level the kernels currently dispatch to (WYM_SIMD-resolved at
/// first use).
SimdLevel ActiveSimdLevel();

/// Forces dispatch to `level` (clamped to DetectedSimdLevel()); returns
/// the level actually applied. Test hook for the parity suites — not
/// thread-safe against concurrent kernel calls.
SimdLevel SetSimdLevel(SimdLevel level);

/// sum_i a[i] * b[i], accumulated in double.
double Dot(const float* a, const float* b, size_t n);
double Dot(const double* a, const double* b, size_t n);

/// sum_i a[i]^2, accumulated in double.
double SquaredNorm(const float* a, size_t n);
double SquaredNorm(const double* a, size_t n);

/// Rows per block of the row-block layout of SquaredDistances: rows
/// are grouped kRowBlock at a time and each block is stored
/// lane-interleaved, element i of row b * kRowBlock + r at
/// packed[b * kRowBlock * dim + i * kRowBlock + r]. A short last block
/// is zero-padded to full width.
inline constexpr size_t kRowBlock = 4;

/// Element count of the row-block form of `n_rows` rows of width `dim`.
size_t RowBlocksSize(size_t n_rows, size_t dim);

/// Packs row-major `rows` (n_rows x dim) into `packed`, which holds
/// RowBlocksSize(n_rows, dim) elements.
void PackRowBlocks(const double* rows, size_t n_rows, size_t dim,
                   double* packed);

/// out[r] = sum_i (query[i] - row_r[i])^2 for every row r of a
/// PackRowBlocks set — the kNN Euclidean hot loop. Each out[r] is the
/// reduction above for the pair (query, row r): 8 partial sums by index
/// mod 8, collapsed in the fixed tree. The SIMD paths vectorize across
/// the rows of a block, so every level, and every row's position in its
/// block, give that single-pair value bit for bit.
void SquaredDistances(const double* query, const double* packed,
                      size_t n_rows, size_t dim, double* out);

/// y[i] += scale * x[i]. The float form keeps the historical semantics
/// of la::Axpy: the product is formed in double, rounded to float, then
/// added in float.
void Axpy(double scale, const float* x, float* y, size_t n);
void Axpy(double scale, const double* x, double* y, size_t n);

/// a[i] = a[i] * factor (float form: double product rounded to float).
void Scale(double factor, float* a, size_t n);
void Scale(double factor, double* a, size_t n);

/// Blocked GEMM over unit-normalized embedding rows:
///   out[i * b_rows + j] = dot(a + i*dim, b + j*dim, dim)
/// i.e. out = A * B^T with A (a_rows x dim) and B (b_rows x dim) packed
/// row-major. Rows are expected unit-normalized, making each cell a
/// cosine similarity. Blocking only reorders *cells* (each cell is one
/// independent Dot), so the result is bit-identical across paths.
void SimilarityMatrix(const float* a, size_t a_rows, const float* b,
                      size_t b_rows, size_t dim, double* out);

/// One dense layer over a block of `lanes` rows stored lane-interleaved
/// (element i of row r at x[i * lanes + r]; the output uses the same
/// layout, so it feeds the next layer directly):
///   out[o * lanes + r] = bias[o] + sum_i weights[o * in_dim + i] * x[...]
/// followed by std::max(0.0, v) when `relu`. Unlike the reductions
/// above, this kernel vectorizes *across rows*: each (o, r) cell is one
/// sequential chain — sum starts at 0.0, adds w * x in increasing i,
/// then bias + sum — the exact arithmetic of a plain scalar
/// matrix-vector forward pass. So every dispatch level, every lane
/// count and every row's position in the block give bit-identical
/// results, equal to the unbatched scalar loop.
void DenseLayer(const double* weights, const double* bias, size_t in_dim,
                size_t out_dim, const double* x, size_t lanes, bool relu,
                double* out);

/// Weighted sum of rows, one sequential chain per element:
///   out[i] = 0.0, then out[i] += weights[k * weight_stride] * rows[k][i]
/// for k = 0 .. n_rows-1 in increasing k, skipping every k whose weight
/// is 0.0 (or -0.0), with the multiply and the add separate. That is the
/// result of zero-filling `out` and calling Axpy once per nonzero weight
/// in order, so every path is bit-identical to that loop. The nonzero
/// rows are gathered first, and the SIMD path keeps a tile of `out` in
/// registers while it walks them. The MLP's weight-row gradients (batch
/// rows weighted by one output's deltas) and back-propagated deltas
/// (weight rows weighted by one sample's deltas) are both this sum.
void WeightedRowSum(const double* weights, size_t weight_stride,
                    const double* const* rows, size_t n_rows, size_t width,
                    double* out);

namespace internal {

/// One fully-populated implementation table; the dispatcher selects one
/// of these per process. Exposed for the per-level parity tests.
struct KernelTable {
  double (*dot_f32)(const float*, const float*, size_t);
  double (*dot_f64)(const double*, const double*, size_t);
  void (*sqdist_rows_f64)(const double*, const double*, size_t, size_t,
                          double*);
  void (*axpy_f32)(double, const float*, float*, size_t);
  void (*axpy_f64)(double, const double*, double*, size_t);
  void (*scale_f32)(double, float*, size_t);
  void (*scale_f64)(double, double*, size_t);
  void (*dense_f64)(const double*, const double*, size_t, size_t,
                    const double*, size_t, bool, double*);
  /// out[i] += w[k] * rows[k][i] for every k < n in increasing k: the
  /// gathered inner loop of WeightedRowSum.
  void (*add_rows_f64)(const double*, const double* const*, size_t, size_t,
                       double*);
};

/// Scalar table: the reference, always available.
const KernelTable* ScalarKernels();
/// AVX2 table, or nullptr when the compiler could not build the AVX2
/// TU or the CPU lacks AVX2.
const KernelTable* Avx2Kernels();

}  // namespace internal

}  // namespace wym::la::kernels

#endif  // WYM_LA_KERNELS_H_
