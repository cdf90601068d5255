#include <gtest/gtest.h>

#include <cmath>

#include "la/eigen.h"
#include "la/matrix.h"
#include "la/sparse_matrix.h"
#include "la/vector_ops.h"

namespace wym::la {
namespace {

TEST(VectorOpsTest, DotNormCosine) {
  const Vec a = {1.0f, 0.0f, 2.0f};
  const Vec b = {0.0f, 3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(Dot(a, b), 8.0);
  EXPECT_DOUBLE_EQ(Norm(a), std::sqrt(5.0));
  EXPECT_NEAR(Cosine(a, a), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(Cosine(Zeros(3), b), 0.0);
}

TEST(VectorOpsTest, AxpyScaleNormalize) {
  Vec a = {1.0f, 2.0f};
  Axpy(2.0, {1.0f, 1.0f}, &a);
  EXPECT_FLOAT_EQ(a[0], 3.0f);
  EXPECT_FLOAT_EQ(a[1], 4.0f);
  Normalize(&a);
  EXPECT_NEAR(Norm(a), 1.0, 1e-6);
  Vec zero = Zeros(2);
  Normalize(&zero);  // Must not produce NaN.
  EXPECT_TRUE(IsZero(zero));
}

TEST(MatrixTest, MultiplyKnown) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  int v = 1;
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) a.At(i, j) = v++;
  }
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) b.At(i, j) = v++;
  }
  const Matrix c = a.Multiply(b);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12] -> c = [58 64; 139 154].
  EXPECT_DOUBLE_EQ(c.At(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 154.0);
}

TEST(MatrixTest, TransposedRoundTrip) {
  Matrix a(2, 3);
  a.At(0, 2) = 5.0;
  const Matrix t = a.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t.At(2, 0), 5.0);
}

TEST(MatrixTest, OrthonormalizeColumns) {
  Matrix m(3, 2);
  m.At(0, 0) = 1.0;
  m.At(1, 0) = 1.0;
  m.At(0, 1) = 1.0;
  m.At(2, 1) = 2.0;
  m.OrthonormalizeColumns();
  double norm0 = 0.0, norm1 = 0.0, dot = 0.0;
  for (size_t i = 0; i < 3; ++i) {
    norm0 += m.At(i, 0) * m.At(i, 0);
    norm1 += m.At(i, 1) * m.At(i, 1);
    dot += m.At(i, 0) * m.At(i, 1);
  }
  EXPECT_NEAR(norm0, 1.0, 1e-9);
  EXPECT_NEAR(norm1, 1.0, 1e-9);
  EXPECT_NEAR(dot, 0.0, 1e-9);
}

TEST(SolveLinearSystemTest, SolvesKnownSystem) {
  Matrix a(2, 2);
  a.At(0, 0) = 3.0;
  a.At(0, 1) = 1.0;
  a.At(1, 0) = 1.0;
  a.At(1, 1) = 2.0;
  const auto x = SolveLinearSystem(a, {9.0, 8.0});
  EXPECT_NEAR(x[0], 2.0, 1e-9);
  EXPECT_NEAR(x[1], 3.0, 1e-9);
}

TEST(SolveLinearSystemTest, RidgeStabilizesSingular) {
  Matrix a(2, 2);  // Rank 1.
  a.At(0, 0) = 1.0;
  a.At(0, 1) = 1.0;
  a.At(1, 0) = 1.0;
  a.At(1, 1) = 1.0;
  const auto x = SolveLinearSystem(a, {2.0, 2.0}, /*ridge=*/1e-3);
  EXPECT_TRUE(std::isfinite(x[0]));
  EXPECT_TRUE(std::isfinite(x[1]));
  EXPECT_NEAR(x[0], 1.0, 1e-2);
}

TEST(SparseMatrixTest, MultiplyDense) {
  SparseMatrix s(3);
  s.Add(0, 1, 2.0);
  s.Add(1, 0, 2.0);
  s.Add(2, 2, 3.0);
  Matrix block(3, 1);
  block.At(0, 0) = 1.0;
  block.At(1, 0) = 2.0;
  block.At(2, 0) = 3.0;
  const Matrix out = s.MultiplyDense(block);
  EXPECT_DOUBLE_EQ(out.At(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(out.At(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(out.At(2, 0), 9.0);
  EXPECT_EQ(s.EntryCount(), 3u);
}

TEST(EigenTest, RecoversDominantEigenpair) {
  // Diagonal matrix diag(5, 2, 1): top eigenvalue 5, eigenvector e0.
  SparseMatrix s(3);
  s.Add(0, 0, 5.0);
  s.Add(1, 1, 2.0);
  s.Add(2, 2, 1.0);
  const EigenResult eigen = TopEigenpairs(s, 2, 50, /*seed=*/13);
  EXPECT_NEAR(eigen.values[0], 5.0, 1e-6);
  EXPECT_NEAR(eigen.values[1], 2.0, 1e-6);
  EXPECT_NEAR(std::fabs(eigen.vectors.At(0, 0)), 1.0, 1e-6);
}

TEST(EigenTest, EmbeddingScalesBySqrtEigenvalue) {
  SparseMatrix s(2);
  s.Add(0, 0, 4.0);
  s.Add(1, 1, 1.0);
  const EigenResult eigen = TopEigenpairs(s, 2, 50, 7);
  const Matrix emb = EigenEmbedding(eigen);
  EXPECT_NEAR(std::fabs(emb.At(0, 0)), 2.0, 1e-6);
}

TEST(EigenTest, DeterministicForSeed) {
  SparseMatrix s(4);
  for (size_t i = 0; i < 4; ++i) s.Add(i, (i + 1) % 4, 1.0);
  for (size_t i = 0; i < 4; ++i) s.Add((i + 1) % 4, i, 1.0);
  const EigenResult a = TopEigenpairs(s, 2, 30, 99);
  const EigenResult b = TopEigenpairs(s, 2, 30, 99);
  EXPECT_EQ(a.vectors.data(), b.vectors.data());
  EXPECT_EQ(a.values, b.values);
}

}  // namespace
}  // namespace wym::la
