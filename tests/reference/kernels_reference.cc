#include <cmath>

#include "models/logistic_regression.h"
#include "tests/reference/reference.h"

namespace blinkml {
namespace reference {

using Index = Matrix::Index;

Matrix MatMul(const Matrix& a, const Matrix& b) {
  BLINKML_CHECK_EQ(a.cols(), b.rows());
  const Index m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n);
  // ikj ordering: c(i, j) accumulates over p in ascending order.
  for (Index i = 0; i < m; ++i) {
    double* crow = c.row_data(i);
    const double* arow = a.row_data(i);
    for (Index p = 0; p < k; ++p) {
      const double aip = arow[p];
      if (aip == 0.0) continue;
      const double* brow = b.row_data(p);
      for (Index j = 0; j < n; ++j) crow[j] += aip * brow[j];
    }
  }
  return c;
}

Vector MatVec(const Matrix& a, const Vector& x) {
  BLINKML_CHECK_EQ(a.cols(), x.size());
  Vector y(a.rows());
  for (Index r = 0; r < a.rows(); ++r) {
    const double* arow = a.row_data(r);
    double s = 0.0;
    for (Index c = 0; c < a.cols(); ++c) s += arow[c] * x[c];
    y[r] = s;
  }
  return y;
}

Vector MatTVec(const Matrix& a, const Vector& x) {
  BLINKML_CHECK_EQ(a.rows(), x.size());
  Vector y(a.cols());
  double* py = y.data();
  for (Index r = 0; r < a.rows(); ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    const double* arow = a.row_data(r);
    for (Index c = 0; c < a.cols(); ++c) py[c] += xr * arow[c];
  }
  return y;
}

Matrix GramRows(const Matrix& a) {
  const Index n = a.rows(), d = a.cols();
  Matrix g(n, n);
  for (Index i = 0; i < n; ++i) {
    const double* ri = a.row_data(i);
    for (Index j = i; j < n; ++j) {
      const double* rj = a.row_data(j);
      double s = 0.0;
      for (Index c = 0; c < d; ++c) s += ri[c] * rj[c];
      g(i, j) = s;
      g(j, i) = s;
    }
  }
  return g;
}

Matrix GramCols(const Matrix& a) {
  const Index n = a.rows(), d = a.cols();
  Matrix g(d, d);
  // Rank-1 updates row by row: entry (i, j) accumulates over the rows of
  // A in ascending order.
  for (Index r = 0; r < n; ++r) {
    const double* row = a.row_data(r);
    for (Index i = 0; i < d; ++i) {
      const double v = row[i];
      if (v == 0.0) continue;
      double* grow = g.row_data(i);
      for (Index j = i; j < d; ++j) grow[j] += v * row[j];
    }
  }
  for (Index i = 0; i < d; ++i) {
    for (Index j = i + 1; j < d; ++j) g(j, i) = g(i, j);
  }
  return g;
}

Matrix MatVecMulti(const Matrix& a, const Matrix& zs) {
  Matrix out(a.rows(), zs.rows());
  for (Index b = 0; b < zs.rows(); ++b) {
    out.SetCol(b, reference::MatVec(a, zs.Row(b)));
  }
  return out;
}

Vector Apply(const SparseMatrix& m, const Vector& x) {
  BLINKML_CHECK_EQ(static_cast<Index>(x.size()), m.cols());
  Vector y(m.rows());
  for (SparseMatrix::Index r = 0; r < m.rows(); ++r) {
    y[r] = m.RowDot(r, x.data());
  }
  return y;
}

Vector ApplyTransposed(const SparseMatrix& m, const Vector& x) {
  BLINKML_CHECK_EQ(static_cast<Index>(x.size()), m.rows());
  Vector y(m.cols());
  for (SparseMatrix::Index r = 0; r < m.rows(); ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    m.AddRowTo(r, xr, y.data());
  }
  return y;
}

Matrix SparseGram(const SparseMatrix& q) {
  const Index n = static_cast<Index>(q.rows());
  Matrix g(n, n);
  for (Index i = 0; i < n; ++i) {
    const auto nnz_i = q.RowNnz(i);
    const auto* cols_i = q.RowCols(i);
    const auto* vals_i = q.RowValues(i);
    for (Index j = i; j < n; ++j) {
      const auto nnz_j = q.RowNnz(j);
      const auto* cols_j = q.RowCols(j);
      const auto* vals_j = q.RowValues(j);
      double s = 0.0;
      SparseMatrix::Index a = 0, b = 0;
      while (a < nnz_i && b < nnz_j) {
        if (cols_i[a] < cols_j[b]) {
          ++a;
        } else if (cols_i[a] > cols_j[b]) {
          ++b;
        } else {
          s += vals_i[a] * vals_j[b];
          ++a;
          ++b;
        }
      }
      g(i, j) = s;
      g(j, i) = s;
    }
  }
  return g;
}

Matrix BatchMargins(const Dataset& data,
                    const std::vector<const Vector*>& thetas) {
  const auto k = static_cast<Index>(thetas.size());
  Matrix margins(data.num_rows(), k);
  for (Dataset::Index i = 0; i < data.num_rows(); ++i) {
    for (Index c = 0; c < k; ++c) {
      margins(i, c) =
          data.RowDot(i, thetas[static_cast<std::size_t>(c)]->data());
    }
  }
  return margins;
}

Vector LogisticGradientCoeffs(const Vector& theta, const Dataset& data) {
  BLINKML_CHECK_EQ(theta.size(), data.dim());
  Vector coeffs(data.num_rows());
  for (Dataset::Index i = 0; i < data.num_rows(); ++i) {
    coeffs[i] = LogisticRegressionSpec::Sigmoid(data.RowDot(i, theta.data())) -
                data.label(i);
  }
  return coeffs;
}

double LogisticObjectiveAndGradient(const Vector& theta, const Dataset& data,
                                    double l2, Vector* grad) {
  BLINKML_CHECK_EQ(theta.size(), data.dim());
  const Dataset::Index n = data.num_rows();
  BLINKML_CHECK_GT(n, 0);
  double loss = 0.0;
  *grad = Vector(theta.size());
  for (Dataset::Index i = 0; i < n; ++i) {
    const double m = data.RowDot(i, theta.data());
    const double y = data.label(i);
    // -[y log s + (1-y) log(1-s)] = log(1+e^m) - y * m, with log(1+e^m)
    // evaluated stably.
    const double log1p_exp =
        m > 30.0 ? m : (m < -30.0 ? std::exp(m) : std::log1p(std::exp(m)));
    loss += log1p_exp - y * m;
    data.AddRowTo(i, LogisticRegressionSpec::Sigmoid(m) - y, grad->data());
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  (*grad) *= inv_n;
  Axpy(l2, theta, grad);
  return loss * inv_n + 0.5 * l2 * SquaredNorm2(theta);
}

}  // namespace reference
}  // namespace blinkml
