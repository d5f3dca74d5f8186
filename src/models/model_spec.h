// Model class specification (MCS) — paper Section 2.2.
//
// The MCS is the abstraction that keeps BlinkML's estimators generic: a
// model class exposes
//   * grads  — per-example gradients q(theta; x_i, y_i) of the negative
//     log-likelihood, *individually* (not averaged), because the
//     ObservedFisher statistics computation needs their covariance;
//   * diff   — the prediction-difference metric v(m1, m2) over a holdout
//     (classification: disagreement rate; regression: normalized RMS
//     prediction difference; PPCA: 1 - cosine of the factor parameters;
//     see paper Section 2.1 and Appendix C);
// plus the objective/gradient used for training and an optional linear
// "score" representation that the estimators exploit for caching (the
// prediction of every supported GLM depends on theta only through scores
// that are linear in theta).

#ifndef BLINKML_MODELS_MODEL_SPEC_H_
#define BLINKML_MODELS_MODEL_SPEC_H_

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "util/status.h"

namespace blinkml {

class ModelSpec {
 public:
  virtual ~ModelSpec() = default;

  /// Human-readable class name ("LogisticRegression", ...).
  virtual std::string name() const = 0;

  /// The task this model class solves.
  virtual Task task() const = 0;

  /// Parameter dimension for the given dataset.
  virtual Vector::Index ParamDim(const Dataset& data) const = 0;

  /// L2 regularization coefficient beta (0 = unregularized).
  virtual double l2() const = 0;

  /// Regularized objective f_n(theta) (paper Equation 2): average negative
  /// log-likelihood plus (beta/2) ||theta||^2.
  virtual double Objective(const Vector& theta, const Dataset& data) const = 0;

  /// grad f_n(theta); *grad is resized by the callee.
  virtual void Gradient(const Vector& theta, const Dataset& data,
                        Vector* grad) const = 0;

  /// Objective and gradient fused (one data pass).
  virtual double ObjectiveAndGradient(const Vector& theta, const Dataset& data,
                                      Vector* grad) const = 0;

  /// The `grads` function of the MCS: row i of *out is
  /// q(theta; x_i, y_i) = -grad log Pr(x_i, y_i; theta), excluding the
  /// regularizer term r(theta).
  virtual void PerExampleGradients(const Vector& theta, const Dataset& data,
                                   Matrix* out) const = 0;

  /// True if PerExampleGradientsSparse has an efficient implementation for
  /// sparse feature matrices (every GLM: q_i is a multiple of x_i per
  /// class block). ObservedFisher uses it to keep the gradient Gram matrix
  /// computation O(nnz) on high-dimensional sparse data.
  virtual bool has_sparse_gradients() const { return false; }

  /// True for single-output GLMs whose per-example gradient is a scalar
  /// multiple of the feature row: q_i = c_i * x_i (linear, logistic,
  /// poisson). The sparse gradient matrix is then diag(c) X — it shares
  /// X's sparsity structure exactly, and Gram(Q)(i,j) = c_i c_j Gram(X)(i,j),
  /// which is what lets the statistics path reuse one feature Gram across
  /// many candidate models (core/statistics.h).
  virtual bool has_gradient_coeffs() const { return false; }

  /// The c of q_i = c_i x_i; *coeffs is resized by the callee. Only valid
  /// when has_gradient_coeffs().
  virtual void PerExampleGradientCoeffs(const Vector& theta,
                                        const Dataset& data,
                                        Vector* coeffs) const;

  /// Sparse per-example gradients; same rows as PerExampleGradients. The
  /// default scales the feature rows by PerExampleGradientCoeffs when the
  /// spec provides them and the data is sparse (structure-sharing, O(nnz)),
  /// and densifies otherwise (correct but slow) — override only for
  /// multi-output models (max_entropy materializes its C*d-wide rows).
  virtual SparseMatrix PerExampleGradientsSparse(const Vector& theta,
                                                 const Dataset& data) const;

  /// Predictions: class labels (kBinary/kMulticlass) or values
  /// (kRegression). Unsupported for kUnsupervised specs.
  virtual void Predict(const Vector& theta, const Dataset& data,
                       Vector* out) const = 0;

  /// Predictions for K parameter vectors at once: *out is resized to
  /// num_rows x K and column k equals Predict(*thetas[k], data) bitwise.
  /// The default runs K separate Predict passes; the single-output GLMs
  /// (models/glm_spec.h) make both final over one batched kernel that
  /// reads every feature row once and serves all K candidates from it (the
  /// hyperparameter search's batched candidate scoring —
  /// session/hyperparam_search.h).
  virtual void PredictBatch(const std::vector<const Vector*>& thetas,
                            const Dataset& data, Matrix* out) const;

  /// True when PredictBatch is genuinely batched (a single-pass kernel,
  /// not the default per-column Predict loop) and, like Predict, reads no
  /// spec state but theta. Batched candidate scoring only groups specs
  /// that return true, and serves a same-type group from one member's
  /// spec; for the rest the matrix would cost strictly more than the
  /// per-candidate passes it replaces.
  virtual bool has_batch_predictions() const { return false; }

  /// The `diff` function of the MCS: v(m(theta1), m(theta2)) evaluated on
  /// `holdout` (ignored by parameter-space metrics such as PPCA's cosine).
  virtual double Diff(const Vector& theta1, const Vector& theta2,
                      const Dataset& holdout) const = 0;

  // --- Linear-score fast path (see file comment). ---

  /// True if predictions depend on theta only through Scores(theta, data)
  /// and the score map is linear in theta.
  virtual bool has_linear_scores() const { return false; }

  /// Score matrix: one row per data row; columns are model outputs (1 for
  /// Lin/LR margins, C for max-entropy class scores).
  virtual Matrix Scores(const Vector& theta, const Dataset& data) const;

  /// Scores for K parameter vectors at once: num_rows x (K * C), with
  /// column block [k*C, (k+1)*C) bitwise equal to Scores(*thetas[k],
  /// data) at every kernel level. The default runs K separate Scores
  /// passes; single-output GLMs override it with the batched margin
  /// kernel so the Monte-Carlo estimators' score path reads every holdout
  /// row once per group of draws instead of once per draw.
  virtual Matrix ScoresBatch(const std::vector<const Vector*>& thetas,
                             const Dataset& data) const;

  /// v computed from two cached score matrices (same semantics as Diff).
  virtual double DiffFromScores(const Matrix& scores1, const Matrix& scores2,
                                const Dataset& holdout) const;

  /// The Monte-Carlo estimators' verdicts: v for every draw of one
  /// ScoresBatch group, straight from the group's score blocks. With
  /// c = base.cols() score columns and W = w.cols() / c draws (at most
  /// kernels::kMultiVec), u_t and w_t the column blocks [t*c, (t+1)*c) of
  /// *u and w, and, element by element,
  ///   s1_t = u_t * a1 + base   (s1_t = base when u is null)
  ///   s2_t = w_t * a2 + s1_t,
  /// v[t] equals DiffFromScores(s1_t, s2_t, holdout) bitwise. The accuracy
  /// estimator passes no u and a2 = 1 (s2_t = w_t + base, as x * 1.0 == x
  /// and IEEE addition commutes); the size search passes a candidate's
  /// two scales. The default materializes s1_t and s2_t and calls
  /// DiffFromScores; binary GLMs count sign flips instead
  /// (models/glm_spec.h).
  virtual void DiffsFromScoreBatch(const Matrix& base, const Matrix* u,
                                   double a1, const Matrix& w, double a2,
                                   const Dataset& holdout, double* v) const;

  // --- Optional closed forms. ---

  /// True if ClosedFormHessian is implemented (paper: Lin and LR).
  virtual bool has_closed_form_hessian() const { return false; }

  /// Analytic Hessian of f_n at theta (including the regularizer), d x d.
  virtual Result<Matrix> ClosedFormHessian(const Vector& theta,
                                           const Dataset& data) const;

  /// True if the MLE has a closed-form solution (PPCA).
  virtual bool has_closed_form_trainer() const { return false; }

  /// Closed-form MLE fit.
  virtual Result<Vector> TrainClosedForm(const Dataset& data) const;

  /// Starting point for iterative training (zeros by default).
  virtual Vector InitialTheta(const Dataset& data) const {
    return Vector(ParamDim(data));
  }

  /// Generalization error of predictions against the holdout's labels:
  /// misclassification rate for classifiers, normalized RMSE for
  /// regression. Unsupported for kUnsupervised.
  double GeneralizationError(const Vector& theta, const Dataset& holdout) const;

  /// Same, from column `col` of a PredictBatch matrix — bitwise identical
  /// to GeneralizationError of the corresponding theta (both aggregate the
  /// predictions in row order with the same arithmetic).
  double GeneralizationErrorFromColumn(const Matrix& predictions,
                                       Matrix::Index col,
                                       const Dataset& holdout) const;
};

/// margins(i, k) = holdout row i dotted with *thetas[k] — the shared
/// kernel behind the GLM PredictBatch and ScoresBatch overrides. Each row
/// is loaded once per group of kernels::kMultiVec candidates and dotted
/// against them with the unrolled dot the single-margin passes use, so
/// entries match the per-candidate margins bitwise.
Matrix BatchMargins(const Dataset& data,
                    const std::vector<const Vector*>& thetas);

/// Standard deviation of a dataset's labels: the scale that normalizes
/// regression prediction differences, so v is free of the labels' units.
double LabelScale(const Dataset& data);

}  // namespace blinkml

#endif  // BLINKML_MODELS_MODEL_SPEC_H_
