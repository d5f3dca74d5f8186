#include <cmath>

#include <gtest/gtest.h>

#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "runtime/runtime_options.h"
#include "runtime/thread_pool.h"
#include "tests/test_util.h"

namespace blinkml {
namespace {

using testing::ExpectMatrixNear;
using testing::ExpectVectorNear;
using testing::RandomMatrix;
using testing::RandomSpd;
using testing::RandomSymmetric;
using testing::RandomVector;

// ---------- Cholesky ----------

TEST(Cholesky, FactorsKnownMatrix) {
  const Matrix a = {{4.0, 2.0}, {2.0, 3.0}};
  const auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  const Matrix& l = chol->L();
  EXPECT_NEAR(l(0, 0), 2.0, 1e-14);
  EXPECT_NEAR(l(1, 0), 1.0, 1e-14);
  EXPECT_NEAR(l(1, 1), std::sqrt(2.0), 1e-14);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_FALSE(Cholesky::Factor(Matrix(2, 3)).ok());
}

TEST(Cholesky, RejectsIndefinite) {
  const Matrix a = {{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  const auto chol = Cholesky::Factor(a);
  EXPECT_FALSE(chol.ok());
  EXPECT_EQ(chol.status().code(), StatusCode::kInvalidArgument);
}

TEST(Cholesky, LogDetMatchesKnownValue) {
  const Matrix a = Matrix::Diagonal(Vector{2.0, 8.0});
  const auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  EXPECT_NEAR(chol->LogDet(), std::log(16.0), 1e-12);
}

class CholeskySizes : public ::testing::TestWithParam<int> {};

TEST_P(CholeskySizes, ReconstructsAndSolves) {
  const int n = GetParam();
  Rng rng(200 + n);
  const Matrix a = RandomSpd(n, &rng);
  const auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  // L L^T == A.
  ExpectMatrixNear(MatMulT(chol->L(), chol->L()), a, 1e-9 * n, "L L^T");
  // Solve round trip.
  const Vector x = RandomVector(n, &rng);
  const Vector b = MatVec(a, x);
  ExpectVectorNear(chol->Solve(b), x, 1e-7, "solve");
  // Inverse: A A^-1 == I.
  ExpectMatrixNear(MatMul(a, chol->Inverse()), Matrix::Identity(n),
                   1e-8 * n, "inverse");
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizes,
                         ::testing::Values(1, 2, 3, 5, 10, 32, 64));

// ---------- Symmetric eigendecomposition ----------

TEST(EigenSym, DiagonalMatrix) {
  const Matrix a = Matrix::Diagonal(Vector{3.0, -1.0, 2.0});
  const auto eig = EigenSym(a);
  ASSERT_TRUE(eig.ok());
  ExpectVectorNear(eig->eigenvalues, Vector{-1.0, 2.0, 3.0}, 1e-12);
}

TEST(EigenSym, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  const Matrix a = {{2.0, 1.0}, {1.0, 2.0}};
  const auto eig = EigenSym(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], 3.0, 1e-12);
}

TEST(EigenSym, RejectsNonSquare) {
  EXPECT_FALSE(EigenSym(Matrix(2, 3)).ok());
}

TEST(EigenSym, HandlesSizeOneAndEmpty) {
  const auto one = EigenSym(Matrix{{5.0}});
  ASSERT_TRUE(one.ok());
  EXPECT_DOUBLE_EQ(one->eigenvalues[0], 5.0);
  const auto empty = EigenSym(Matrix(0, 0));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->eigenvalues.size(), 0);
}

TEST(EigenSym, RepeatedEigenvalues) {
  const Matrix a = Matrix::Identity(4) * 2.0;
  const auto eig = EigenSym(a);
  ASSERT_TRUE(eig.ok());
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(eig->eigenvalues[i], 2.0, 1e-12);
}

class EigenSymSizes : public ::testing::TestWithParam<int> {};

TEST_P(EigenSymSizes, ReconstructionAndOrthogonality) {
  const int n = GetParam();
  Rng rng(300 + n);
  const Matrix a = RandomSymmetric(n, &rng);
  const auto eig = EigenSym(a);
  ASSERT_TRUE(eig.ok());
  const Matrix& v = eig->eigenvectors;
  // Eigenvalues ascending.
  for (int i = 1; i < n; ++i) {
    EXPECT_LE(eig->eigenvalues[i - 1], eig->eigenvalues[i] + 1e-12);
  }
  // V orthonormal.
  ExpectMatrixNear(MatTMul(v, v), Matrix::Identity(n), 1e-9 * n, "V^T V");
  // V diag(w) V^T == A.
  const Matrix recon =
      MatMulT(MatMul(v, Matrix::Diagonal(eig->eigenvalues)), v);
  ExpectMatrixNear(recon, a, 1e-9 * n, "reconstruction");
  // Trace preserved.
  double trace_a = 0.0, sum_w = 0.0;
  for (int i = 0; i < n; ++i) {
    trace_a += a(i, i);
    sum_w += eig->eigenvalues[i];
  }
  EXPECT_NEAR(trace_a, sum_w, 1e-8 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSymSizes,
                         ::testing::Values(2, 3, 4, 8, 17, 50, 128));

TEST(EigenSym, ValuesOnlyMatchesFull) {
  Rng rng(42);
  const Matrix a = RandomSymmetric(20, &rng);
  const auto full = EigenSym(a);
  const auto values = EigenSymValues(a);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(values.ok());
  ExpectVectorNear(full->eigenvalues, *values, 1e-10);
}

TEST(EigenSym, ToleratesSlightAsymmetry) {
  Rng rng(43);
  Matrix a = RandomSymmetric(10, &rng);
  a(3, 7) += 1e-13;  // round-off-scale asymmetry
  EXPECT_TRUE(EigenSym(a).ok());
}

// Regression: the tridiagonalization's partial-slot buffer must cover the
// chunk counts of every Householder step's sub-range, which are not
// monotone in the range size. n = 600 is in the regime where sizing by
// the largest range under-allocates (60 slots vs the 64 a 512-row step
// uses) — this overflowed the heap before MaxChunksForRanges.
TEST(EigenSym, NonMonotoneChunkCountSizesAreSafe) {
  Rng rng(606);
  const Matrix a = RandomSymmetric(600, &rng);
  const auto eig = EigenSym(a);
  ASSERT_TRUE(eig.ok());
  // Light sanity: eigenvalues ascending, eigenvector columns unit norm.
  for (Matrix::Index i = 1; i < 600; ++i) {
    EXPECT_LE(eig->eigenvalues[i - 1], eig->eigenvalues[i]);
  }
  double norm = 0.0;
  for (Matrix::Index r = 0; r < 600; ++r) {
    norm += eig->eigenvectors(r, 0) * eig->eigenvectors(r, 0);
  }
  EXPECT_NEAR(norm, 1.0, 1e-9);
}

// The Householder tridiagonalization runs its row loops through the
// parallel runtime; the chunk layout is a pure function of the matrix
// size, so serial and parallel execution must agree bitwise at any
// thread count (runtime/parallel.h determinism contract).
TEST(EigenSym, SerialAndParallelAgreeBitwise) {
  Rng rng(777);
  // 192 rows: above the inline threshold, so worker lanes really run.
  const Matrix a = RandomSymmetric(192, &rng);

  SymmetricEigen serial;
  {
    RuntimeOptions options;
    options.num_threads = 1;
    RuntimeScope scope(options);
    auto eig = EigenSym(a);
    ASSERT_TRUE(eig.ok());
    serial = std::move(*eig);
  }

  ThreadPool pool(8);
  for (const int threads : {2, 3, 8}) {
    RuntimeOptions options;
    options.pool = &pool;
    options.num_threads = threads;
    RuntimeScope scope(options);
    auto eig = EigenSym(a);
    ASSERT_TRUE(eig.ok());
    EXPECT_EQ(MaxAbsDiff(eig->eigenvalues, serial.eigenvalues), 0.0)
        << threads << " threads";
    EXPECT_EQ(MaxAbsDiff(eig->eigenvectors, serial.eigenvectors), 0.0)
        << threads << " threads";
  }
}

// The QL iteration's Givens rotation accumulation is row-parallel over
// the transposed eigenvector storage. A matrix with tightly clustered
// eigenvalues forces many QL sweeps (and thus many rotations), so this
// stresses that path specifically; serial and parallel runs must agree
// bitwise at any thread count.
TEST(EigenSym, QlRotationAccumulationSerialParallelBitwise) {
  Rng rng(909);
  // Q diag(l) Q^T with clustered eigenvalues: l_i in {1, 1+1e-9, 2, ...}.
  const Matrix base = RandomSymmetric(256, &rng);
  auto base_eig = EigenSym(base);
  ASSERT_TRUE(base_eig.ok());
  Matrix clustered(256, 256);
  for (Matrix::Index i = 0; i < 256; ++i) {
    const double l = 1.0 + static_cast<double>(i / 32) +
                     1e-9 * static_cast<double>(i % 32);
    for (Matrix::Index r = 0; r < 256; ++r) {
      for (Matrix::Index c = 0; c < 256; ++c) {
        clustered(r, c) += l * base_eig->eigenvectors(r, i) *
                           base_eig->eigenvectors(c, i);
      }
    }
  }

  SymmetricEigen serial;
  {
    RuntimeOptions options;
    options.num_threads = 1;
    RuntimeScope scope(options);
    auto eig = EigenSym(clustered);
    ASSERT_TRUE(eig.ok());
    serial = std::move(*eig);
  }
  ThreadPool pool(8);
  for (const int threads : {2, 8}) {
    RuntimeOptions options;
    options.pool = &pool;
    options.num_threads = threads;
    RuntimeScope scope(options);
    auto eig = EigenSym(clustered);
    ASSERT_TRUE(eig.ok());
    EXPECT_EQ(MaxAbsDiff(eig->eigenvalues, serial.eigenvalues), 0.0)
        << threads << " threads";
    EXPECT_EQ(MaxAbsDiff(eig->eigenvectors, serial.eigenvectors), 0.0)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace blinkml
