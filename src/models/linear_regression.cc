#include "models/linear_regression.h"

#include <cmath>

#include "models/glm_parallel.h"

namespace blinkml {

namespace {
using Index = Dataset::Index;

// Per-row arithmetic for the shared GLM drivers (models/glm_parallel.h);
// the residual is the loss root and the gradient coefficient at once.
struct LinearLink {
  double Coeff(double m, double y) const { return m - y; }
  double LossAndCoeff(double m, double y, double* coeff) const {
    const double r = m - y;
    *coeff = r;
    return 0.5 * r * r;
  }
  double Predict(double m) const { return m; }
};

}  // namespace

LinearRegressionSpec::LinearRegressionSpec(double l2) : l2_(l2) {
  BLINKML_CHECK_GE(l2, 0.0);
}

double LinearRegressionSpec::Objective(const Vector& theta,
                                       const Dataset& data) const {
  return internal::GlmObjective(LinearLink{}, data, theta, l2_);
}

void LinearRegressionSpec::Gradient(const Vector& theta, const Dataset& data,
                                    Vector* grad) const {
  ObjectiveAndGradient(theta, data, grad);
}

double LinearRegressionSpec::ObjectiveAndGradient(const Vector& theta,
                                                  const Dataset& data,
                                                  Vector* grad) const {
  return internal::GlmObjectiveAndGradient(LinearLink{}, data, theta, l2_,
                                           grad);
}

void LinearRegressionSpec::PerExampleGradients(const Vector& theta,
                                               const Dataset& data,
                                               Matrix* out) const {
  internal::GlmPerExampleGradients(LinearLink{}, data, theta, out);
}

void LinearRegressionSpec::PerExampleGradientCoeffs(const Vector& theta,
                                                    const Dataset& data,
                                                    Vector* coeffs) const {
  internal::GlmCoeffs(LinearLink{}, data, theta, coeffs);
}

void LinearRegressionSpec::Predict(const Vector& theta, const Dataset& data,
                                   Vector* out) const {
  internal::GlmPredict(LinearLink{}, data, theta, out);
}

void LinearRegressionSpec::PredictBatch(
    const std::vector<const Vector*>& thetas, const Dataset& data,
    Matrix* out) const {
  // Predictions ARE the margins.
  *out = BatchMargins(data, thetas);
}

Matrix LinearRegressionSpec::Scores(const Vector& theta,
                                    const Dataset& data) const {
  Vector pred;
  Predict(theta, data, &pred);
  Matrix scores(data.num_rows(), 1);
  for (Index i = 0; i < data.num_rows(); ++i) scores(i, 0) = pred[i];
  return scores;
}

Matrix LinearRegressionSpec::ScoresBatch(
    const std::vector<const Vector*>& thetas, const Dataset& data) const {
  // The identity link makes scores the margins; one pass serves the
  // whole group, each column bitwise equal to a single Scores pass.
  return BatchMargins(data, thetas);
}

double LinearRegressionSpec::DiffFromScores(const Matrix& scores1,
                                            const Matrix& scores2,
                                            const Dataset& holdout) const {
  BLINKML_CHECK_EQ(scores1.rows(), holdout.num_rows());
  BLINKML_CHECK_EQ(scores2.rows(), holdout.num_rows());
  const Index n = holdout.num_rows();
  BLINKML_CHECK_GT(n, 0);
  double se = 0.0;
  for (Index i = 0; i < n; ++i) {
    const double d = scores1(i, 0) - scores2(i, 0);
    se += d * d;
  }
  const double rms = std::sqrt(se / static_cast<double>(n));
  return rms / LabelScale(holdout);
}

double LinearRegressionSpec::Diff(const Vector& theta1, const Vector& theta2,
                                  const Dataset& holdout) const {
  return DiffFromScores(Scores(theta1, holdout), Scores(theta2, holdout),
                        holdout);
}

Result<Matrix> LinearRegressionSpec::ClosedFormHessian(
    const Vector& theta, const Dataset& data) const {
  (void)theta;  // the linear-regression Hessian is parameter-independent
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("empty dataset");
  }
  Matrix h;
  if (data.is_sparse()) {
    // Accumulate X^T X from sparse rows.
    const SparseMatrix& x = data.sparse();
    h = Matrix(data.dim(), data.dim());
    for (Index i = 0; i < data.num_rows(); ++i) {
      const auto nnz = x.RowNnz(i);
      const auto* cols = x.RowCols(i);
      const auto* vals = x.RowValues(i);
      for (Index a = 0; a < nnz; ++a) {
        for (Index b = 0; b < nnz; ++b) {
          h(cols[a], cols[b]) += vals[a] * vals[b];
        }
      }
    }
  } else {
    h = GramCols(data.dense());
  }
  h *= 1.0 / static_cast<double>(data.num_rows());
  h.AddToDiagonal(l2_);
  return h;
}

}  // namespace blinkml
