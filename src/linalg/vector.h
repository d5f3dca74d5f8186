// Dense double-precision vector.
//
// A thin, contiguous container with the numeric operations the rest of the
// library needs (dot, norms, axpy, scaling). Kept deliberately simple: no
// expression templates; hot compound operations have dedicated fused
// functions instead.

#ifndef BLINKML_LINALG_VECTOR_H_
#define BLINKML_LINALG_VECTOR_H_

#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "util/check.h"

namespace blinkml {

class Vector {
 public:
  using Index = std::ptrdiff_t;

  Vector() = default;
  /// Zero-initialized vector of the given size.
  explicit Vector(Index n) : data_(CheckedSize(n), 0.0) {}
  Vector(Index n, double fill) : data_(CheckedSize(n), fill) {}
  Vector(std::initializer_list<double> init) : data_(init) {}
  explicit Vector(std::vector<double> values) : data_(std::move(values)) {}

  Index size() const { return static_cast<Index>(data_.size()); }
  bool empty() const { return data_.empty(); }

  double operator[](Index i) const {
    BLINKML_DCHECK(i >= 0 && i < size());
    return data_[static_cast<std::size_t>(i)];
  }
  double& operator[](Index i) {
    BLINKML_DCHECK(i >= 0 && i < size());
    return data_[static_cast<std::size_t>(i)];
  }

  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }

  const std::vector<double>& values() const { return data_; }

  /// Moves the values out, leaving an empty vector (the inverse of the
  /// adopting constructor).
  std::vector<double> ReleaseValues() && { return std::move(data_); }

  /// Sets every element to `v`.
  void Fill(double v);

  /// Resizes, zero-filling new elements.
  void Resize(Index n);

  // -- Arithmetic (element-wise; sizes must match) --
  Vector& operator+=(const Vector& other);
  Vector& operator-=(const Vector& other);
  Vector& operator*=(double s);
  Vector& operator/=(double s);

  friend Vector operator+(Vector a, const Vector& b) { return a += b; }
  friend Vector operator-(Vector a, const Vector& b) { return a -= b; }
  friend Vector operator*(Vector a, double s) { return a *= s; }
  friend Vector operator*(double s, Vector a) { return a *= s; }
  friend Vector operator/(Vector a, double s) { return a /= s; }

  bool operator==(const Vector& other) const { return data_ == other.data_; }

 private:
  static std::size_t CheckedSize(Index n) {
    BLINKML_CHECK_GE(n, 0);
    return static_cast<std::size_t>(n);
  }

  std::vector<double> data_;
};

/// Inner product <a, b>; sizes must match.
double Dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double Norm2(const Vector& v);

/// Squared Euclidean norm.
double SquaredNorm2(const Vector& v);

/// Max-absolute-value norm; 0 for the empty vector.
double NormInf(const Vector& v);

/// y += alpha * x (fused multiply-add; sizes must match).
void Axpy(double alpha, const Vector& x, Vector* y);

/// Cosine similarity <a,b>/(|a||b|); checks both norms are nonzero.
double CosineSimilarity(const Vector& a, const Vector& b);

/// Element-wise maximum absolute difference.
double MaxAbsDiff(const Vector& a, const Vector& b);

/// Normwise relative difference MaxAbsDiff(a, b) / NormInf(b)
/// (tiny-floored); see the Matrix overload in linalg/matrix.h.
double MaxRelDiff(const Vector& a, const Vector& b);

}  // namespace blinkml

#endif  // BLINKML_LINALG_VECTOR_H_
