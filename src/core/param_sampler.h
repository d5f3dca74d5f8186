// Parameter sampler: draws from N(0, s^2 * H^-1 J H^-1) without ever
// materializing the covariance (paper Section 4.3).
//
// The covariance is represented by a factor W with W W^T = H^-1 J H^-1.
// Two backends:
//  * dense  — W is an explicit p x r matrix (used by the dense statistics
//    methods, and by ObservedFisher when materializing W is cheap);
//  * gram   — W = Q^T * V_scaled is applied lazily (Q is the per-example
//    gradient matrix, sparse or dense; V_scaled is n_s x r). This is the
//    memory- and time-efficient path for high-dimensional models: a draw
//    costs O(n_s r + nnz(Q)) and p x r storage is never allocated. For a
//    single-output GLM the sparse Q is diag(c) X and ALIASES the sample's
//    CSR structure (linalg/sparse.h): holding the factor here costs only
//    the nnz values, not a second copy of the index arrays.
//
// Both paper optimizations are built in:
//  * sampling by scaling — Draw takes the sqrt(1/n - 1/N) scale as an
//    argument, so one unscaled draw serves every candidate n;
//  * common random numbers — DrawWithZ reuses a caller-held z across
//    candidate sample sizes (the binary search's monotonicity then holds
//    path-by-path).

#ifndef BLINKML_CORE_PARAM_SAMPLER_H_
#define BLINKML_CORE_PARAM_SAMPLER_H_

#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "linalg/vector.h"
#include "random/rng.h"
#include "util/status.h"

namespace blinkml {

class ParamSampler {
 public:
  /// Explicit factor: W is p x r with W W^T = Sigma.
  static ParamSampler FromDenseFactor(Matrix w);

  /// Lazy Gram-form factor: W = Q^T * v_scaled, Q dense n_s x p.
  static ParamSampler FromGramFactor(Matrix q, Matrix v_scaled);

  /// Lazy Gram-form factor with sparse Q.
  static ParamSampler FromSparseGramFactor(SparseMatrix q, Matrix v_scaled);

  /// Parameter dimension p.
  Matrix::Index dim() const;

  /// Factor rank r (the z dimension).
  Matrix::Index rank() const;

  /// Draws scale * W z with fresh z ~ N(0, I_r).
  Vector Draw(double scale, Rng* rng) const;

  /// Draws scale * W z for a caller-supplied z (CRN support).
  Vector DrawWithZ(double scale, const Vector& z) const;

  /// Batched draws: row b of `zs` (B x r) is draw b's z vector. Element
  /// [b] of the result is bitwise equal to DrawWithZ(scale, zs.row(b)) at
  /// every thread count. One pass over the factor (W, or V then Q) serves
  /// the whole batch via the multi-z kernels — the amortization the
  /// Monte-Carlo estimators ride.
  std::vector<Vector> DrawBatch(double scale, const Matrix& zs) const;

  /// Dense covariance W W^T for diagnostics (paper Figure 9); guarded to
  /// p <= 8192 to prevent accidental quadratic blowups.
  Result<Matrix> DenseCovariance() const;

  /// diag(W W^T): per-parameter sampler variances (paper Figure 9a).
  /// Same dimension guard as DenseCovariance for the gram backend.
  Result<Vector> VarianceDiagonal() const;

  /// Fraction of total variance dropped by rank truncation (0 when the
  /// factor is exact); recorded by the statistics computation.
  double dropped_variance_fraction() const {
    return dropped_variance_fraction_;
  }
  void set_dropped_variance_fraction(double f) {
    dropped_variance_fraction_ = f;
  }

 private:
  enum class Backend { kDense, kGram, kSparseGram };

  ParamSampler() = default;

  Backend backend_ = Backend::kDense;
  Matrix w_;               // dense backend
  Matrix q_dense_;         // gram backend: n_s x p
  SparseMatrix q_sparse_;  // sparse-gram backend
  Matrix v_scaled_;        // gram backends: n_s x r
  double dropped_variance_fraction_ = 0.0;
};

}  // namespace blinkml

#endif  // BLINKML_CORE_PARAM_SAMPLER_H_
