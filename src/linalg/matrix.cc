#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.h"
#include "obs/trace.h"

namespace blinkml {

// The product/Gram/matvec entry points run the tiled kernels in
// linalg/kernels.cc (bitwise identical for any thread count; checked
// against plain reference loops in tests/kernels_test.cc).

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = static_cast<Index>(rows.size());
  cols_ = rows_ > 0 ? static_cast<Index>(rows.begin()->size()) : 0;
  data_.reserve(static_cast<std::size_t>(rows_ * cols_));
  for (const auto& row : rows) {
    BLINKML_CHECK_EQ(static_cast<Index>(row.size()), cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(Index n) {
  Matrix m(n, n);
  for (Index i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const Vector& diag) {
  Matrix m(diag.size(), diag.size());
  for (Index i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

Vector Matrix::Row(Index r) const {
  BLINKML_CHECK(r >= 0 && r < rows_);
  Vector v(cols_);
  std::copy(row_data(r), row_data(r) + cols_, v.data());
  return v;
}

Vector Matrix::Col(Index c) const {
  BLINKML_CHECK(c >= 0 && c < cols_);
  Vector v(rows_);
  for (Index r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void Matrix::SetRow(Index r, const Vector& v) {
  BLINKML_CHECK(r >= 0 && r < rows_);
  BLINKML_CHECK_EQ(v.size(), cols_);
  std::copy(v.data(), v.data() + cols_, row_data(r));
}

void Matrix::SetCol(Index c, const Vector& v) {
  BLINKML_CHECK(c >= 0 && c < cols_);
  BLINKML_CHECK_EQ(v.size(), rows_);
  for (Index r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

void Matrix::Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

Matrix& Matrix::operator+=(const Matrix& other) {
  BLINKML_CHECK_EQ(rows_, other.rows_);
  BLINKML_CHECK_EQ(cols_, other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  BLINKML_CHECK_EQ(rows_, other.rows_);
  BLINKML_CHECK_EQ(cols_, other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

void Matrix::AddToDiagonal(double s) {
  const Index n = std::min(rows_, cols_);
  for (Index i = 0; i < n; ++i) (*this)(i, i) += s;
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (Index r = 0; r < rows_; ++r) {
    const double* src = row_data(r);
    for (Index c = 0; c < cols_; ++c) t(c, r) = src[c];
  }
  return t;
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::fabs(x));
  return m;
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  BLINKML_CHECK_EQ(a.cols(), b.rows());
  return kernels::MatMul(a, b);
}

Matrix MatTMul(const Matrix& a, const Matrix& b) {
  BLINKML_CHECK_EQ(a.rows(), b.rows());
  using Index = Matrix::Index;
  const Index m = a.cols(), k = a.rows(), n = b.cols();
  Matrix c(m, n);
  for (Index p = 0; p < k; ++p) {
    const double* arow = a.row_data(p);
    const double* brow = b.row_data(p);
    for (Index i = 0; i < m; ++i) {
      const double aip = arow[i];
      if (aip == 0.0) continue;
      double* crow = c.row_data(i);
      for (Index j = 0; j < n; ++j) crow[j] += aip * brow[j];
    }
  }
  return c;
}

Matrix MatMulT(const Matrix& a, const Matrix& b) {
  BLINKML_CHECK_EQ(a.cols(), b.cols());
  using Index = Matrix::Index;
  const Index m = a.rows(), k = a.cols(), n = b.rows();
  Matrix c(m, n);
  for (Index i = 0; i < m; ++i) {
    const double* arow = a.row_data(i);
    double* crow = c.row_data(i);
    for (Index j = 0; j < n; ++j) {
      const double* brow = b.row_data(j);
      double s = 0.0;
      for (Index p = 0; p < k; ++p) s += arow[p] * brow[p];
      crow[j] = s;
    }
  }
  return c;
}

Vector MatVec(const Matrix& a, const Vector& x) {
  BLINKML_CHECK_EQ(a.cols(), x.size());
  return kernels::MatVec(a, x);
}

Vector MatTVec(const Matrix& a, const Vector& x) {
  BLINKML_CHECK_EQ(a.rows(), x.size());
  return kernels::MatTVec(a, x);
}

Matrix GramRows(const Matrix& a) {
  obs::SpanScope span("kernel:GramRows", "kernel", "rows",
                      static_cast<long long>(a.rows()));
  kernels::NoteKernelDispatch("GramRows");
  return kernels::GramRows(a);
}

Matrix GramCols(const Matrix& a) {
  obs::SpanScope span("kernel:GramCols", "kernel", "rows",
                      static_cast<long long>(a.rows()));
  kernels::NoteKernelDispatch("GramCols");
  return kernels::GramCols(a);
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  BLINKML_CHECK_EQ(a.rows(), b.rows());
  BLINKML_CHECK_EQ(a.cols(), b.cols());
  double m = 0.0;
  const double* pa = a.data();
  const double* pb = b.data();
  for (Matrix::Index i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(pa[i] - pb[i]));
  }
  return m;
}

double MaxRelDiff(const Matrix& a, const Matrix& b) {
  return MaxAbsDiff(a, b) / std::max(b.MaxAbs(), 1e-300);
}

double MeanFrobeniusError(const Matrix& a, const Matrix& b) {
  BLINKML_CHECK_EQ(a.rows(), b.rows());
  BLINKML_CHECK_EQ(a.cols(), b.cols());
  BLINKML_CHECK_GT(a.size(), 0);
  Matrix d = a;
  d -= b;
  return d.FrobeniusNorm() / static_cast<double>(a.size());
}

}  // namespace blinkml
