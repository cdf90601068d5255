#include "la/vector_ops.h"

#include <cmath>

#include "la/kernels.h"
#include "util/logging.h"

namespace wym::la {

double Dot(const Vec& a, const Vec& b) {
  WYM_CHECK_EQ(a.size(), b.size());
  return kernels::Dot(a.data(), b.data(), a.size());
}

double Norm(const Vec& a) {
  return std::sqrt(kernels::SquaredNorm(a.data(), a.size()));
}

double Cosine(const Vec& a, const Vec& b) {
  const double na = Norm(a);
  const double nb = Norm(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

void Axpy(double scale, const Vec& b, Vec* a) {
  WYM_CHECK_EQ(a->size(), b.size());
  kernels::Axpy(scale, b.data(), a->data(), b.size());
}

void Scale(double factor, Vec* a) {
  kernels::Scale(factor, a->data(), a->size());
}

void Normalize(Vec* a) { Normalize(a->data(), a->size()); }

void Normalize(float* a, size_t n) {
  const double norm = std::sqrt(kernels::SquaredNorm(a, n));
  if (norm == 0.0) return;
  kernels::Scale(1.0 / norm, a, n);
}

void PackUnitRows(const float* rows, size_t n_rows, size_t dim, Vec* packed) {
  packed->assign(rows, rows + n_rows * dim);
  for (size_t i = 0; i < n_rows; ++i) {
    float* row = packed->data() + i * dim;
    const double norm = std::sqrt(kernels::SquaredNorm(row, dim));
    if (norm > 0.0) kernels::Scale(1.0 / norm, row, dim);
  }
}

Vec Zeros(size_t dim) { return Vec(dim, 0.0f); }

bool IsZero(const Vec& a) {
  for (float v : a) {
    if (v != 0.0f) return false;
  }
  return true;
}

}  // namespace wym::la
