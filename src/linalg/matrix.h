// Dense row-major double-precision matrix with the operations the BlinkML
// core needs: products (cache-blocked), transposes, row/column access,
// Gram matrices, and symmetric utilities.

#ifndef BLINKML_LINALG_MATRIX_H_
#define BLINKML_LINALG_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "linalg/vector.h"
#include "util/check.h"

namespace blinkml {

class Matrix {
 public:
  using Index = std::ptrdiff_t;

  Matrix() = default;
  /// Zero-initialized rows x cols matrix.
  Matrix(Index rows, Index cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows * cols), 0.0) {
    BLINKML_CHECK_GE(rows, 0);
    BLINKML_CHECK_GE(cols, 0);
  }
  /// rows x cols matrix that adopts `values` (row-major, rows * cols of
  /// them) without copying them.
  Matrix(Index rows, Index cols, std::vector<double> values)
      : rows_(rows), cols_(cols), data_(std::move(values)) {
    BLINKML_CHECK_GE(rows, 0);
    BLINKML_CHECK_GE(cols, 0);
    BLINKML_CHECK_EQ(data_.size(), static_cast<std::size_t>(rows * cols));
  }
  /// Row-major construction from nested initializer lists (for tests).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix Identity(Index n);
  /// Square matrix with `diag` on the diagonal.
  static Matrix Diagonal(const Vector& diag);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index size() const { return rows_ * cols_; }

  double operator()(Index r, Index c) const {
    BLINKML_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  double& operator()(Index r, Index c) {
    BLINKML_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }
  /// Pointer to the start of row r.
  const double* row_data(Index r) const { return data() + r * cols_; }
  double* row_data(Index r) { return data() + r * cols_; }

  /// Copies row r into a Vector.
  Vector Row(Index r) const;
  /// Copies column c into a Vector.
  Vector Col(Index c) const;
  void SetRow(Index r, const Vector& v);
  void SetCol(Index c, const Vector& v);

  void Fill(double v);

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  /// Adds s to every diagonal element (square not required; uses min dim).
  void AddToDiagonal(double s);

  Matrix Transposed() const;

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Max absolute element.
  double MaxAbs() const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<double> data_;
};

/// C = A * B (cache-blocked ikj kernel).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A^T * B without materializing A^T.
Matrix MatTMul(const Matrix& a, const Matrix& b);

/// C = A * B^T without materializing B^T.
Matrix MatMulT(const Matrix& a, const Matrix& b);

/// y = A * x.
Vector MatVec(const Matrix& a, const Vector& x);

/// y = A^T * x without materializing A^T.
Vector MatTVec(const Matrix& a, const Vector& x);

/// Symmetric Gram matrix A * A^T (rows x rows); exploits symmetry.
Matrix GramRows(const Matrix& a);

/// Symmetric Gram matrix A^T * A (cols x cols); exploits symmetry.
Matrix GramCols(const Matrix& a);

/// Max absolute element-wise difference; shapes must match.
double MaxAbsDiff(const Matrix& a, const Matrix& b);

/// Normwise relative difference MaxAbsDiff(a, b) / max|b| (tiny-floored):
/// the kernel-vs-oracle tolerance metric (tests/kernels_test.cc,
/// bench_kernels) — one definition so bench and tests gate on the same
/// number.
double MaxRelDiff(const Matrix& a, const Matrix& b);

/// (1/size) * Frobenius norm of (a - b): the per-entry covariance error
/// metric of paper Figure 9b.
double MeanFrobeniusError(const Matrix& a, const Matrix& b);

}  // namespace blinkml

#endif  // BLINKML_LINALG_MATRIX_H_
