// Reference implementations: the plain loops and per-draw estimators the
// production kernels and batched Monte-Carlo estimators are checked
// against. Test-only — linked by the test harness and bench_kernels,
// never by the library.
//
// Each function computes the same quantity as its production counterpart
// with the textbook accumulation order (one chain per dot, rows in
// ascending order). The production kernels reassociate sums into several
// accumulator chains, so they match these within 1e-12 relative; the
// sparse Gram's gather, the multi-column transposed applies and the
// batched estimators keep the reference arithmetic exactly and match
// bitwise.

#ifndef BLINKML_TESTS_REFERENCE_REFERENCE_H_
#define BLINKML_TESTS_REFERENCE_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "core/accuracy_estimator.h"
#include "core/param_sampler.h"
#include "core/sample_size_estimator.h"
#include "data/dataset.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "linalg/vector.h"
#include "models/model_spec.h"
#include "random/rng.h"

namespace blinkml {
namespace reference {

// ---- Dense linear algebra ----

Matrix MatMul(const Matrix& a, const Matrix& b);
Vector MatVec(const Matrix& a, const Vector& x);
Vector MatTVec(const Matrix& a, const Vector& x);
/// A A^T.
Matrix GramRows(const Matrix& a);
/// A^T A.
Matrix GramCols(const Matrix& a);
/// Column b of the result is MatVec(a, row b of zs).
Matrix MatVecMulti(const Matrix& a, const Matrix& zs);

// ---- Sparse linear algebra ----

Vector Apply(const SparseMatrix& m, const Vector& x);
Vector ApplyTransposed(const SparseMatrix& m, const Vector& x);
/// Q Q^T by one sorted-column merge per row pair.
Matrix SparseGram(const SparseMatrix& q);

// ---- Models ----

/// Column c is the margin <x_i, thetas[c]> of every row, by RowDot.
Matrix BatchMargins(const Dataset& data,
                    const std::vector<const Vector*>& thetas);

/// Logistic per-example gradient coefficients sigmoid(<x_i, theta>) - y_i
/// (q_i = c_i x_i), with RowDot margins.
Vector LogisticGradientCoeffs(const Vector& theta, const Dataset& data);

/// Averaged logistic loss + L2 term and its gradient, one row at a time
/// with the loss and the sigmoid computed separately.
double LogisticObjectiveAndGradient(const Vector& theta, const Dataset& data,
                                    double l2, Vector* grad);

// ---- GLM passes, one row at a time ----

/// The per-row arithmetic of a GLM link (models/glm_spec.h), restated.
struct GlmLink {
  double (*loss_and_coeff)(double margin, double y, double* coeff);
  double (*coeff)(double margin, double y);
  double (*predict)(double margin);
};
GlmLink LinearLink();
GlmLink LogisticLink();
GlmLink PoissonLink();

/// <x_i, theta> with the canonical four-chain association (DotUnrolled /
/// SparseDotUnrolled), as a plain loop.
double CanonicalMargin(const Dataset& data, Dataset::Index i,
                       const Vector& theta);

// GlmSpec's passes without panels, lookahead or vector kernels: canonical
// margins, the link, and the entry-by-entry row update. The two reductions
// sum per GradientGrain chunk and merge the chunks in order, the layout the
// production reductions fold in, so all five agree with GlmSpec bitwise.
double GlmObjectiveAndGradient(const GlmLink& link, const Vector& theta,
                               const Dataset& data, double l2, Vector* grad);
double GlmObjective(const GlmLink& link, const Vector& theta,
                    const Dataset& data, double l2);
Vector GlmGradientCoeffs(const GlmLink& link, const Vector& theta,
                         const Dataset& data);
Matrix GlmPerExampleGradients(const GlmLink& link, const Vector& theta,
                              const Dataset& data);
Vector GlmPredict(const GlmLink& link, const Vector& theta,
                  const Dataset& data);

// ---- Sampling ----

/// SampleWithoutReplacement with Floyd's chosen set in a std::unordered_set:
/// the same Rng draws and the same output, in the same order.
std::vector<std::int64_t> SampleWithoutReplacement(std::int64_t n,
                                                   std::int64_t k, Rng* rng);

// ---- Monte-Carlo estimators ----

// Both take valid arguments only (0 < n <= N, k >= 1, delta in (0, 1));
// argument validation is the production estimators' job.

/// EstimateAccuracy with one sampler.Draw and one Scores (or Diff) pass
/// per Monte-Carlo sample. Consumes each chunk's Rng stream exactly as
/// the batched estimator does, so the estimates agree bitwise.
AccuracyEstimate EstimateAccuracyPerDraw(
    const ModelSpec& spec, const Vector& theta_n, Dataset::Index n,
    Dataset::Index full_n, const ParamSampler& sampler,
    const Dataset& holdout, const AccuracyOptions& options, Rng* rng);

/// EstimateSampleSize with two sampler.Draw calls (u_i then w_i) per
/// Monte-Carlo pair, followed by the same bisection over n, scanning
/// every pair of every candidate in order, and a per-draw pass for the
/// initial_diff_bound.
SampleSizeEstimate EstimateSampleSizePerDraw(
    const ModelSpec& spec, const Vector& theta0, Dataset::Index n0,
    Dataset::Index full_n, const ParamSampler& sampler,
    const Dataset& holdout, const SampleSizeOptions& options, Rng* rng);

}  // namespace reference
}  // namespace blinkml

#endif  // BLINKML_TESTS_REFERENCE_REFERENCE_H_
