#ifndef WYM_LA_VECTOR_OPS_H_
#define WYM_LA_VECTOR_OPS_H_

#include <cstddef>
#include <vector>

/// \file
/// Dense float-vector operations for token embeddings. Embeddings are
/// float to halve memory; model mathematics (nn/, ml/) uses double.

namespace wym::la {

/// Embedding vector type.
using Vec = std::vector<float>;

/// Dot product; vectors must have equal length.
double Dot(const Vec& a, const Vec& b);

/// Euclidean norm.
double Norm(const Vec& a);

/// Cosine similarity in [-1, 1]; 0 when either vector is all-zero.
/// Recomputes both norms on every call; for rows already unit-norm or
/// all-zero (all SemanticEncoder outputs are), Dot is the cosine.
double Cosine(const Vec& a, const Vec& b);

/// a += scale * b (in place).
void Axpy(double scale, const Vec& b, Vec* a);

/// Scales a vector in place.
void Scale(double factor, Vec* a);

/// Normalizes to unit length in place; leaves an all-zero vector untouched.
void Normalize(Vec* a);

/// Normalize over the `n` floats at `a` (one row of a packed block).
void Normalize(float* a, size_t n);

/// Copies `n_rows` row-major rows of `dim` floats into `packed` and
/// unit-normalizes each copied row; all-zero rows stay all-zero. With
/// unit rows, every cosine downstream is a plain dot product.
void PackUnitRows(const float* rows, size_t n_rows, size_t dim, Vec* packed);

/// All-zero vector of the given dimension (the paper's [UNP] embedding).
Vec Zeros(size_t dim);

/// True when every component is exactly zero.
bool IsZero(const Vec& a);

}  // namespace wym::la

#endif  // WYM_LA_VECTOR_OPS_H_
