#include "models/model_spec.h"

#include <cmath>

#include "linalg/kernels.h"

namespace blinkml {

namespace {

// The one aggregation behind GeneralizationError and its from-column
// variant: `pred(i)` is the prediction for holdout row i. Keeping both
// public entry points on this single serial row loop is what makes the
// batched scoring path bitwise identical to the per-candidate one.
template <typename PredFn>
double GeneralizationErrorImpl(const PredFn& pred, const Dataset& holdout) {
  BLINKML_CHECK_MSG(holdout.task() != Task::kUnsupervised,
                    "generalization error needs labels");
  BLINKML_CHECK_GT(holdout.num_rows(), 0);
  if (holdout.task() == Task::kRegression) {
    double se = 0.0;
    for (Dataset::Index i = 0; i < holdout.num_rows(); ++i) {
      const double r = pred(i) - holdout.label(i);
      se += r * r;
    }
    const double rmse =
        std::sqrt(se / static_cast<double>(holdout.num_rows()));
    return rmse / LabelScale(holdout);
  }
  Dataset::Index wrong = 0;
  for (Dataset::Index i = 0; i < holdout.num_rows(); ++i) {
    if (pred(i) != holdout.label(i)) ++wrong;
  }
  return static_cast<double>(wrong) / static_cast<double>(holdout.num_rows());
}

}  // namespace

void ModelSpec::PerExampleGradientCoeffs(const Vector& theta,
                                         const Dataset& data,
                                         Vector* coeffs) const {
  (void)theta;
  (void)data;
  (void)coeffs;
  BLINKML_CHECK_MSG(false, name() + " has no per-example gradient coeffs");
}

SparseMatrix ModelSpec::PerExampleGradientsSparse(const Vector& theta,
                                                  const Dataset& data) const {
  if (data.is_sparse() && has_gradient_coeffs()) {
    Vector coeffs;
    PerExampleGradientCoeffs(theta, data, &coeffs);
    return data.sparse().ScaleRows(coeffs);
  }
  Matrix dense;
  PerExampleGradients(theta, data, &dense);
  return SparseMatrix::FromDense(dense);
}

Matrix ModelSpec::Scores(const Vector& theta, const Dataset& data) const {
  (void)theta;
  (void)data;
  BLINKML_CHECK_MSG(false, name() + " does not provide linear scores");
  return Matrix();
}

Matrix ModelSpec::ScoresBatch(const std::vector<const Vector*>& thetas,
                              const Dataset& data) const {
  const auto k = static_cast<Matrix::Index>(thetas.size());
  if (k == 0) return Matrix(data.num_rows(), 0);
  Matrix out;
  Matrix::Index score_cols = 0;
  for (Matrix::Index b = 0; b < k; ++b) {
    BLINKML_CHECK_MSG(thetas[static_cast<std::size_t>(b)] != nullptr,
                      "null theta in ScoresBatch");
    const Matrix s = Scores(*thetas[static_cast<std::size_t>(b)], data);
    if (b == 0) {
      score_cols = s.cols();
      out = Matrix(s.rows(), k * score_cols);
    }
    for (Matrix::Index i = 0; i < s.rows(); ++i) {
      const double* src = s.row_data(i);
      double* dst = out.row_data(i) + b * score_cols;
      for (Matrix::Index c = 0; c < score_cols; ++c) dst[c] = src[c];
    }
  }
  return out;
}

double ModelSpec::DiffFromScores(const Matrix& scores1, const Matrix& scores2,
                                 const Dataset& holdout) const {
  (void)scores1;
  (void)scores2;
  (void)holdout;
  BLINKML_CHECK_MSG(false, name() + " does not provide linear scores");
  return 0.0;
}

Result<Matrix> ModelSpec::ClosedFormHessian(const Vector& theta,
                                            const Dataset& data) const {
  (void)theta;
  (void)data;
  return Status::InvalidArgument(name() + " has no closed-form Hessian");
}

Result<Vector> ModelSpec::TrainClosedForm(const Dataset& data) const {
  (void)data;
  return Status::InvalidArgument(name() + " has no closed-form trainer");
}

void ModelSpec::PredictBatch(const std::vector<const Vector*>& thetas,
                             const Dataset& data, Matrix* out) const {
  const auto k = static_cast<Matrix::Index>(thetas.size());
  *out = Matrix(data.num_rows(), k);
  Vector pred;
  for (Matrix::Index c = 0; c < k; ++c) {
    BLINKML_CHECK_MSG(thetas[static_cast<std::size_t>(c)] != nullptr,
                      "null theta in PredictBatch");
    Predict(*thetas[static_cast<std::size_t>(c)], data, &pred);
    for (Dataset::Index i = 0; i < data.num_rows(); ++i) {
      (*out)(i, c) = pred[i];
    }
  }
}

double ModelSpec::GeneralizationError(const Vector& theta,
                                      const Dataset& holdout) const {
  Vector pred;
  Predict(theta, holdout, &pred);
  return GeneralizationErrorImpl(
      [&pred](Dataset::Index i) { return pred[i]; }, holdout);
}

double ModelSpec::GeneralizationErrorFromColumn(const Matrix& predictions,
                                                Matrix::Index col,
                                                const Dataset& holdout) const {
  BLINKML_CHECK_EQ(predictions.rows(), holdout.num_rows());
  BLINKML_CHECK_LT(col, predictions.cols());
  return GeneralizationErrorImpl(
      [&predictions, col](Dataset::Index i) { return predictions(i, col); },
      holdout);
}

Matrix BatchMargins(const Dataset& data,
                    const std::vector<const Vector*>& thetas) {
  for (const Vector* theta : thetas) {
    BLINKML_CHECK_MSG(theta != nullptr, "null theta in BatchMargins");
    BLINKML_CHECK_EQ(theta->size(), data.dim());
  }
  // The kernels run every entry through the same unrolled dot the
  // single-margin passes use, so a column equals a per-candidate Predict
  // pass bitwise (the batched-scoring self-check).
  if (data.is_sparse()) {
    return kernels::BatchMarginsSparse(data.sparse(), thetas);
  }
  // Dense rows share the sampler's packed multi-vector kernel: the thetas
  // become the rows of a k x d block.
  Matrix block(static_cast<Matrix::Index>(thetas.size()), data.dim());
  for (std::size_t t = 0; t < thetas.size(); ++t) {
    block.SetRow(static_cast<Matrix::Index>(t), *thetas[t]);
  }
  return kernels::MatVecMulti(data.dense(), block);
}

double LabelScale(const Dataset& data) {
  BLINKML_CHECK_GT(data.num_rows(), 1);
  const Vector& y = data.labels();
  double mean = 0.0;
  for (Vector::Index i = 0; i < y.size(); ++i) mean += y[i];
  mean /= static_cast<double>(y.size());
  double var = 0.0;
  for (Vector::Index i = 0; i < y.size(); ++i) {
    var += (y[i] - mean) * (y[i] - mean);
  }
  var /= static_cast<double>(y.size());
  const double sd = std::sqrt(var);
  // Degenerate labels: fall back to unit scale so v stays finite.
  return sd > 1e-12 ? sd : 1.0;
}

}  // namespace blinkml
