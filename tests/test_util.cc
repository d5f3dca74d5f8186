#include "tests/test_util.h"

#include <algorithm>
#include <utility>

#include "data/generators.h"
#include "runtime/runtime_options.h"
#include "runtime/thread_pool.h"

namespace blinkml {
namespace testing {

Matrix RandomMatrix(Matrix::Index rows, Matrix::Index cols, Rng* rng) {
  Matrix m(rows, cols);
  for (Matrix::Index r = 0; r < rows; ++r) {
    for (Matrix::Index c = 0; c < cols; ++c) m(r, c) = rng->Normal();
  }
  return m;
}

Matrix RandomSpd(Matrix::Index n, Rng* rng, double ridge) {
  const Matrix b = RandomMatrix(n, n, rng);
  Matrix a = MatMulT(b, b);
  a.AddToDiagonal(ridge);
  return a;
}

Matrix RandomSymmetric(Matrix::Index n, Rng* rng) {
  Matrix a = RandomMatrix(n, n, rng);
  Matrix at = a.Transposed();
  a += at;
  a *= 0.5;
  return a;
}

Vector RandomVector(Vector::Index n, Rng* rng) {
  Vector v(n);
  rng->FillNormal(&v);
  return v;
}

void ExpectMatrixNear(const Matrix& a, const Matrix& b, double tol,
                      const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_LE(MaxAbsDiff(a, b), tol) << what;
}

void ExpectVectorNear(const Vector& a, const Vector& b, double tol,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_LE(MaxAbsDiff(a, b), tol) << what;
}

void ExpectBitwiseEqual(const ApproxResult& a, const ApproxResult& b,
                        const char* what) {
  EXPECT_EQ(a.sample_size, b.sample_size) << what;
  EXPECT_EQ(a.full_size, b.full_size) << what;
  EXPECT_EQ(a.used_initial_only, b.used_initial_only) << what;
  EXPECT_EQ(a.contract_satisfied, b.contract_satisfied) << what;
  EXPECT_EQ(a.contract_check_failures, b.contract_check_failures) << what;
  EXPECT_EQ(a.initial_epsilon, b.initial_epsilon) << what;
  EXPECT_EQ(a.final_epsilon, b.final_epsilon) << what;
  EXPECT_EQ(a.size_estimate.sample_size, b.size_estimate.sample_size) << what;
  ASSERT_EQ(a.model.theta.size(), b.model.theta.size()) << what;
  EXPECT_EQ(MaxAbsDiff(a.model.theta, b.model.theta), 0.0) << what;
}

BlinkConfig FastConfig(std::uint64_t seed) {
  BlinkConfig config;
  config.initial_sample_size = 1000;
  config.holdout_size = 1000;
  config.accuracy_samples = 256;
  config.size_samples = 128;
  config.seed = seed;
  return config;
}

Dataset SmallDenseLogistic(std::int64_t rows, std::int64_t dim,
                           std::uint64_t seed) {
  return MakeSyntheticLogistic(rows, dim, seed);
}

Dataset SparseBinaryData(Dataset::Index rows, Dataset::Index dim,
                         std::uint64_t seed, Dataset::Index nnz_per_row) {
  return MakeCriteoLike(rows, seed, dim, nnz_per_row);
}

Vector Trainedish(const Dataset& data, std::uint64_t seed) {
  Rng rng(seed);
  Vector theta(data.dim());
  for (Vector::Index j = 0; j < theta.size(); ++j) {
    theta[j] = rng.Normal(0.0, 0.05);
  }
  return theta;
}

bool Avx2Available() {
  return AtIsa(KernelIsa::kAvx2,
               [] { return CurrentKernelIsa() == KernelIsa::kAvx2; });
}

bool Avx512Available() {
  return AtIsa(KernelIsa::kAvx512,
               [] { return CurrentKernelIsa() == KernelIsa::kAvx512; });
}

std::vector<KernelIsa> IsasToTest() {
  std::vector<KernelIsa> isas = {KernelIsa::kScalar};
  if (Avx2Available()) isas.push_back(KernelIsa::kAvx2);
  if (Avx512Available()) isas.push_back(KernelIsa::kAvx512);
  return isas;
}

void ExpectThreadCountInvariant(const std::function<Vector()>& fn,
                                std::vector<int> thread_counts,
                                const char* what) {
  RuntimeOptions serial;
  serial.num_threads = 1;
  Vector reference;
  {
    RuntimeScope scope(serial);
    reference = fn();
  }
  int max_threads = 1;
  for (const int t : thread_counts) max_threads = std::max(max_threads, t);
  ThreadPool pool(max_threads);
  for (const int threads : thread_counts) {
    RuntimeOptions options;
    options.pool = &pool;
    options.num_threads = threads;
    RuntimeScope scope(options);
    const Vector got = fn();
    ASSERT_EQ(got.size(), reference.size())
        << what << " (threads=" << threads << ")";
    EXPECT_EQ(MaxAbsDiff(got, reference), 0.0)
        << what << " (threads=" << threads << ")";
  }
}

}  // namespace testing
}  // namespace blinkml
