// Shared test-harness library for the suite (compiled: test_util.cc).
//
// Collects what individual tests used to re-implement: random linear
// algebra helpers, the fixture datasets and configs the session/serving
// tests train on, bitwise-equality asserts for ApproxResult, and a
// thread-count sweep helper for the runtime's determinism contract.

#ifndef BLINKML_TESTS_TEST_UTIL_H_
#define BLINKML_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "core/contract.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "models/logistic_regression.h"
#include "random/rng.h"

namespace blinkml {
namespace testing {

// ---- Random linear-algebra helpers ----

/// Random matrix with i.i.d. N(0,1) entries.
Matrix RandomMatrix(Matrix::Index rows, Matrix::Index cols, Rng* rng);

/// Random symmetric positive-definite matrix A = B B^T + ridge I.
Matrix RandomSpd(Matrix::Index n, Rng* rng, double ridge = 0.5);

/// Random symmetric (possibly indefinite) matrix.
Matrix RandomSymmetric(Matrix::Index n, Rng* rng);

/// Random vector with i.i.d. N(0,1) entries.
Vector RandomVector(Vector::Index n, Rng* rng);

// ---- Numeric asserts ----

/// EXPECT that two matrices agree element-wise within tol.
void ExpectMatrixNear(const Matrix& a, const Matrix& b, double tol,
                      const char* what = "");

/// EXPECT that two vectors agree element-wise within tol.
void ExpectVectorNear(const Vector& a, const Vector& b, double tol,
                      const char* what = "");

/// EXPECT that two training results are bitwise identical: sample sizes,
/// epsilon bounds, flags, and every parameter of the returned model.
void ExpectBitwiseEqual(const ApproxResult& a, const ApproxResult& b,
                        const char* what = "");

// ---- Fixture configs and datasets ----

/// A contract tight enough that every candidate on the fixture datasets
/// runs the full pipeline (size estimation + final training), so
/// equivalence checks cover every stage.
inline constexpr ApproximationContract kTightContract{0.01, 0.05};

/// A loose contract the fixture datasets' initial models satisfy outright
/// (the paper's common regime); statistics then run on the shared D_0.
inline constexpr ApproximationContract kLooseContract{0.08, 0.05};

/// Small Monte-Carlo budgets + 1000-row holdout/D_0: the whole pipeline
/// in well under a second per run.
BlinkConfig FastConfig(std::uint64_t seed = 42);

/// Dense binary-classification workload (MakeSyntheticLogistic under the
/// hood). Defaults fit session/coordinator equivalence tests; pass a dim
/// above the stats sample size (e.g. 300 x 400) for the dense
/// feature-Gram rescale path (p = dim > n_s).
Dataset SmallDenseLogistic(std::int64_t rows = 20000, std::int64_t dim = 6,
                           std::uint64_t seed = 3);

/// Sparse binary dataset sized so ObservedFisher takes the Gram path
/// (p = dim > n_s) with a handful of overlapping nonzeros per row.
Dataset SparseBinaryData(Dataset::Index rows = 400, Dataset::Index dim = 600,
                         std::uint64_t seed = 7,
                         Dataset::Index nnz_per_row = 20);

/// A plausible (not trained) parameter vector: small i.i.d. normal entries.
Vector Trainedish(const Dataset& data, std::uint64_t seed);

/// Logistic regression without per-example gradient coefficients, so
/// ObservedFisher builds and Grams each candidate's gradient matrix (the
/// path max-entropy takes) instead of rescaling the shared feature Gram:
/// the reference side of the rescale-vs-merge equivalence tests.
class MergePathLogistic : public LogisticRegressionSpec {
 public:
  using LogisticRegressionSpec::LogisticRegressionSpec;
  bool has_gradient_coeffs() const override { return false; }
};

// ---- Thread-count sweeps ----

/// Runs `fn` with the runtime disabled (serial reference), then under a
/// shared pool capped at each count in `thread_counts`, and EXPECTs every
/// parallel result bitwise equal to the serial one — the runtime's
/// determinism contract (runtime/parallel.h). `fn` must be pure (same
/// output on every call at a fixed thread count).
void ExpectThreadCountInvariant(const std::function<Vector()>& fn,
                                std::vector<int> thread_counts = {1, 2, 8},
                                const char* what = "");

}  // namespace testing
}  // namespace blinkml

#endif  // BLINKML_TESTS_TEST_UTIL_H_
