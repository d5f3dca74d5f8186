#include "models/logistic_regression.h"

#include <cmath>

#include "models/glm_parallel.h"

namespace blinkml {

namespace {
using Index = Dataset::Index;

// Per-row arithmetic for the shared GLM drivers (models/glm_parallel.h).
// LossAndCoeff shares one exp between the loss
// -[y log s + (1-y) log(1-s)] = log(1+e^m) - y * m and the sigmoid.
struct LogisticLink {
  double Coeff(double m, double y) const {
    return LogisticRegressionSpec::Sigmoid(m) - y;
  }
  double LossAndCoeff(double m, double y, double* coeff) const {
    if (m >= 0.0) {
      const double e = std::exp(-m);  // e in (0, 1]: both branches stable
      *coeff = 1.0 / (1.0 + e) - y;
      return m + std::log1p(e) - y * m;
    }
    const double e = std::exp(m);
    *coeff = e / (1.0 + e) - y;
    return std::log1p(e) - y * m;
  }
  double Predict(double m) const { return m >= 0.0 ? 1.0 : 0.0; }
};

}  // namespace

double LogisticRegressionSpec::Sigmoid(double margin) {
  if (margin >= 0.0) {
    const double e = std::exp(-margin);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(margin);
  return e / (1.0 + e);
}

LogisticRegressionSpec::LogisticRegressionSpec(double l2) : l2_(l2) {
  BLINKML_CHECK_GE(l2, 0.0);
}

double LogisticRegressionSpec::Objective(const Vector& theta,
                                         const Dataset& data) const {
  return internal::GlmObjective(LogisticLink{}, data, theta, l2_);
}

void LogisticRegressionSpec::Gradient(const Vector& theta, const Dataset& data,
                                      Vector* grad) const {
  ObjectiveAndGradient(theta, data, grad);
}

double LogisticRegressionSpec::ObjectiveAndGradient(const Vector& theta,
                                                    const Dataset& data,
                                                    Vector* grad) const {
  return internal::GlmObjectiveAndGradient(LogisticLink{}, data, theta, l2_,
                                           grad);
}

void LogisticRegressionSpec::PerExampleGradients(const Vector& theta,
                                                 const Dataset& data,
                                                 Matrix* out) const {
  internal::GlmPerExampleGradients(LogisticLink{}, data, theta, out);
}

void LogisticRegressionSpec::PerExampleGradientCoeffs(const Vector& theta,
                                                      const Dataset& data,
                                                      Vector* coeffs) const {
  internal::GlmCoeffs(LogisticLink{}, data, theta, coeffs);
}

void LogisticRegressionSpec::Predict(const Vector& theta, const Dataset& data,
                                     Vector* out) const {
  internal::GlmPredict(LogisticLink{}, data, theta, out);
}

void LogisticRegressionSpec::PredictBatch(
    const std::vector<const Vector*>& thetas, const Dataset& data,
    Matrix* out) const {
  *out = BatchMargins(data, thetas);
  ParallelFor(0, data.num_rows(), [&](Index b, Index e) {
    for (Index i = b; i < e; ++i) {
      double* row = out->row_data(i);
      for (Matrix::Index c = 0; c < out->cols(); ++c) {
        row[c] = row[c] >= 0.0 ? 1.0 : 0.0;
      }
    }
  });
}

Matrix LogisticRegressionSpec::Scores(const Vector& theta,
                                      const Dataset& data) const {
  BLINKML_CHECK_EQ(theta.size(), data.dim());
  Matrix scores(data.num_rows(), 1);
  // Margins through the shared GLM margin walk, so each score is computed
  // with the canonical unrolled dot — the invariant that makes a ScoresBatch
  // column bitwise equal to this single pass.
  ParallelFor(0, data.num_rows(), [&](Index b, Index e) {
    internal::ForMargins(data, theta, b, e,
                         [&](Index i, double m) { scores(i, 0) = m; });
  });
  return scores;
}

Matrix LogisticRegressionSpec::ScoresBatch(
    const std::vector<const Vector*>& thetas, const Dataset& data) const {
  // Scores ARE the margins: one pass over the rows serves every draw in
  // the group, each column bitwise equal to a single Scores pass.
  return BatchMargins(data, thetas);
}

double LogisticRegressionSpec::DiffFromScores(const Matrix& scores1,
                                              const Matrix& scores2,
                                              const Dataset& holdout) const {
  BLINKML_CHECK_EQ(scores1.rows(), holdout.num_rows());
  BLINKML_CHECK_EQ(scores2.rows(), holdout.num_rows());
  const Index n = holdout.num_rows();
  BLINKML_CHECK_GT(n, 0);
  Index disagree = 0;
  for (Index i = 0; i < n; ++i) {
    const bool p1 = scores1(i, 0) >= 0.0;
    const bool p2 = scores2(i, 0) >= 0.0;
    if (p1 != p2) ++disagree;
  }
  return static_cast<double>(disagree) / static_cast<double>(n);
}

double LogisticRegressionSpec::Diff(const Vector& theta1, const Vector& theta2,
                                    const Dataset& holdout) const {
  return DiffFromScores(Scores(theta1, holdout), Scores(theta2, holdout),
                        holdout);
}

Result<Matrix> LogisticRegressionSpec::ClosedFormHessian(
    const Vector& theta, const Dataset& data) const {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("empty dataset");
  }
  BLINKML_CHECK_EQ(theta.size(), data.dim());
  const Index n = data.num_rows();
  const Index d = data.dim();
  Matrix h(d, d);
  // H = (1/n) X^T diag(s(1-s)) X + beta I, accumulated row by row.
  for (Index i = 0; i < n; ++i) {
    const double s = Sigmoid(data.RowDot(i, theta.data()));
    const double w = s * (1.0 - s);
    if (data.is_sparse()) {
      const SparseMatrix& x = data.sparse();
      const auto nnz = x.RowNnz(i);
      const auto* cols = x.RowCols(i);
      const auto* vals = x.RowValues(i);
      for (Index a = 0; a < nnz; ++a) {
        for (Index b = 0; b < nnz; ++b) {
          h(cols[a], cols[b]) += w * vals[a] * vals[b];
        }
      }
    } else {
      const double* row = data.dense().row_data(i);
      for (Index a = 0; a < d; ++a) {
        const double wa = w * row[a];
        if (wa == 0.0) continue;
        double* hrow = h.row_data(a);
        for (Index b = 0; b < d; ++b) hrow[b] += wa * row[b];
      }
    }
  }
  h *= 1.0 / static_cast<double>(n);
  h.AddToDiagonal(l2_);
  return h;
}

}  // namespace blinkml
