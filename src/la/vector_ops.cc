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

double CosineUnit(const Vec& a, const Vec& b) { return Dot(a, b); }

void Axpy(double scale, const Vec& b, Vec* a) {
  WYM_CHECK_EQ(a->size(), b.size());
  kernels::Axpy(scale, b.data(), a->data(), b.size());
}

void Scale(double factor, Vec* a) {
  kernels::Scale(factor, a->data(), a->size());
}

void Normalize(Vec* a) {
  const double norm = Norm(*a);
  if (norm == 0.0) return;
  Scale(1.0 / norm, a);
}

Vec Zeros(size_t dim) { return Vec(dim, 0.0f); }

bool IsZero(const Vec& a) {
  for (float v : a) {
    if (v != 0.0f) return false;
  }
  return true;
}

}  // namespace wym::la
