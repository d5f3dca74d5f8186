// Structure-sharing sparse statistics: per-example gradient coefficients,
// the rescale-vs-merge Gram equivalence, the FeatureGramCache, and the
// thread-count determinism of the new sparse kernels.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/statistics.h"
#include "data/feature_gram_cache.h"
#include "data/generators.h"
#include "models/linear_regression.h"
#include "models/logistic_regression.h"
#include "models/max_entropy.h"
#include "models/poisson_regression.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "tests/test_util.h"

namespace blinkml {
namespace {

using testing::ExpectMatrixNear;
using testing::ExpectVectorNear;
using testing::SparseBinaryData;
using testing::Trainedish;

// ---------- Gradient coefficients ----------

TEST(GradientCoeffs, SparseGradientsMatchDenseForEveryGlm) {
  const Dataset binary = SparseBinaryData();
  const Vector theta = Trainedish(binary, 1);

  const LogisticRegressionSpec lr(1e-3);
  const LinearRegressionSpec lin(1e-3);
  const PoissonRegressionSpec poisson(1e-3);
  const std::vector<const ModelSpec*> specs = {&lr, &lin, &poisson};
  for (const ModelSpec* spec : specs) {
    ASSERT_TRUE(spec->has_gradient_coeffs()) << spec->name();
    const SparseMatrix q = spec->PerExampleGradientsSparse(theta, binary);
    // The scaled matrix aliases the sample's CSR structure — the
    // structure-sharing contract the statistics path relies on.
    EXPECT_TRUE(q.SharesStructureWith(binary.sparse())) << spec->name();
    Matrix dense;
    spec->PerExampleGradients(theta, binary, &dense);
    ExpectMatrixNear(q.ToDense(), dense, 0.0, spec->name().c_str());

    // Coefficients times rows reproduce the same matrix entry-for-entry.
    Vector coeffs;
    spec->PerExampleGradientCoeffs(theta, binary, &coeffs);
    ASSERT_EQ(coeffs.size(), binary.num_rows());
    ExpectMatrixNear(binary.sparse().ScaleRows(coeffs).ToDense(), dense, 0.0,
                     spec->name().c_str());
  }
}

TEST(GradientCoeffs, MaxEntropyKeepsTheMaterializingPath) {
  const MaxEntropySpec me(1e-3);
  EXPECT_FALSE(me.has_gradient_coeffs());
  EXPECT_TRUE(me.has_sparse_gradients());
  const Dataset yelp = MakeYelpLike(120, /*seed=*/3, /*dim=*/200);
  Rng rng(5);
  Vector theta(me.ParamDim(yelp));
  for (Vector::Index j = 0; j < theta.size(); ++j) {
    theta[j] = rng.Normal(0.0, 0.05);
  }
  const SparseMatrix q = me.PerExampleGradientsSparse(theta, yelp);
  EXPECT_FALSE(q.SharesStructureWith(yelp.sparse()));  // C*d-wide rows
  Matrix dense;
  me.PerExampleGradients(theta, yelp, &dense);
  ExpectMatrixNear(q.ToDense(), dense, 1e-15, "max entropy");
}

// ---------- Rescale vs merge ----------

// Dense oracle for both Gram computations: the rescaled feature Gram
// c_i c_j (X X^T)(i, j) must match the Gram of the scaled rows
// (diag(c) X)(diag(c) X)^T to floating-point rounding.
TEST(RescaleVsMerge, GramEntriesAgreeToTightRelativeTolerance) {
  const Dataset data = SparseBinaryData(200, 300);
  const Vector theta = Trainedish(data, 2);
  const LogisticRegressionSpec spec(1e-3);
  Vector coeffs;
  spec.PerExampleGradientCoeffs(theta, data, &coeffs);

  const Matrix x = data.sparse().ToDense();
  const Matrix gram_x = GramRows(x);
  const Matrix q = data.sparse().ScaleRows(coeffs).ToDense();
  const Matrix gram_merge = GramRows(q);

  double max_rel = 0.0;
  for (Matrix::Index i = 0; i < gram_x.rows(); ++i) {
    for (Matrix::Index j = 0; j < gram_x.cols(); ++j) {
      const double rescaled = coeffs[i] * coeffs[j] * gram_x(i, j);
      const double merged = gram_merge(i, j);
      const double scale = std::max(std::abs(merged), 1e-30);
      max_rel = std::max(max_rel, std::abs(rescaled - merged) / scale);
    }
  }
  EXPECT_LE(max_rel, 1e-12);
}

StatsOptions GramPathOptions() {
  StatsOptions options;
  options.stats_sample_size = 128;
  options.max_rank = 64;
  return options;
}

// End-to-end: ComputeStatistics on the rescale path and on the merge path
// (the same model without gradient coefficients) produces samplers whose
// variances agree to 1e-12 relative tolerance (they are the same operator
// up to Gram rounding).
TEST(RescaleVsMerge, ObservedFisherSamplersAgree) {
  const Dataset data = SparseBinaryData();
  const Vector theta = Trainedish(data, 3);
  const LogisticRegressionSpec spec(1e-3);
  const testing::MergePathLogistic merge_spec(1e-3);

  Rng rng_a(17), rng_b(17);
  const auto with_rescale =
      ComputeStatistics(spec, theta, data, GramPathOptions(), &rng_a);
  const auto with_merge =
      ComputeStatistics(merge_spec, theta, data, GramPathOptions(), &rng_b);
  ASSERT_TRUE(with_rescale.ok());
  ASSERT_TRUE(with_merge.ok());
  EXPECT_EQ(with_rescale->rank(), with_merge->rank());

  const auto var_a = with_rescale->VarianceDiagonal();
  const auto var_b = with_merge->VarianceDiagonal();
  ASSERT_TRUE(var_a.ok());
  ASSERT_TRUE(var_b.ok());
  double max_var = 0.0;
  for (Vector::Index i = 0; i < var_b->size(); ++i) {
    max_var = std::max(max_var, std::abs((*var_b)[i]));
  }
  ASSERT_GT(max_var, 0.0);
  // The Gram matrices agree to ~1e-12 relative (test above); the
  // eigendecomposition between them and the variances gets a little
  // headroom on top of that.
  for (Vector::Index i = 0; i < var_a->size(); ++i) {
    EXPECT_NEAR((*var_a)[i], (*var_b)[i], 1e-10 * max_var) << "entry " << i;
  }
}

// ---------- FeatureGramCache ----------

Matrix SmallGram(double fill, Matrix::Index n = 4) {
  Matrix m(n, n);
  for (Matrix::Index i = 0; i < n; ++i) {
    for (Matrix::Index j = 0; j < n; ++j) m(i, j) = fill;
  }
  return m;
}

TEST(FeatureGramCacheTest, SharesByKeyAndCountsHits) {
  FeatureGramCache cache;
  int calls = 0;
  const FeatureGramCache::Key key{42, 1000};
  auto factory = [&] {
    ++calls;
    return SmallGram(1.0);
  };
  const auto a = cache.GetOrCreate(key, factory);
  const auto b = cache.GetOrCreate(key, factory);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().cached_bytes, 4u * 4u * sizeof(double));

  // Seed and parent size are both part of the key.
  cache.GetOrCreate({43, 1000}, factory);
  cache.GetOrCreate({42, 999}, factory);
  EXPECT_EQ(calls, 3);

  cache.Clear();
  EXPECT_EQ(cache.stats().cached_bytes, 0u);
  EXPECT_EQ(a->rows(), 4);  // live users keep their Gram
}

TEST(FeatureGramCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  FeatureGramCache cache;
  const std::uint64_t entry_bytes = 4 * 4 * sizeof(double);
  cache.set_max_cached_bytes(2 * entry_bytes);  // room for two entries
  const FeatureGramCache::Key a{1, 10};
  const FeatureGramCache::Key b{2, 10};
  const FeatureGramCache::Key c{3, 10};
  int calls = 0;
  auto factory = [&] {
    ++calls;
    return SmallGram(static_cast<double>(calls));
  };
  cache.GetOrCreate(a, factory);
  cache.GetOrCreate(b, factory);
  cache.GetOrCreate(a, factory);  // refresh a: b is now least recent
  cache.GetOrCreate(c, factory);  // evicts b
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().cached_bytes, 2 * entry_bytes);
  cache.GetOrCreate(a, factory);  // still cached
  EXPECT_EQ(calls, 3);
  cache.GetOrCreate(b, factory);  // was evicted: recomputed
  EXPECT_EQ(calls, 4);

  // An entry larger than the whole budget is returned but not retained.
  FeatureGramCache tiny;
  tiny.set_max_cached_bytes(8);
  const auto big = tiny.GetOrCreate(a, [&] { return SmallGram(9.0); });
  EXPECT_EQ(big->rows(), 4);
  EXPECT_EQ(tiny.stats().bypassed, 1u);
  EXPECT_EQ(tiny.stats().cached_bytes, 0u);
}

TEST(FeatureGramCacheTest, ConcurrentMissesForOneKeyAreSingleFlight) {
  FeatureGramCache cache;
  const FeatureGramCache::Key key{5, 64};
  std::atomic<int> calls{0};
  auto factory = [&] {
    ++calls;
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return SmallGram(3.0);
  };
  std::shared_ptr<const Matrix> a, b;
  std::thread t1([&] { a = cache.GetOrCreate(key, factory); });
  std::thread t2([&] { b = cache.GetOrCreate(key, factory); });
  t1.join();
  t2.join();
  EXPECT_EQ(calls.load(), 1);  // one leader; the follower shared its Gram
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(FeatureGramCacheTest, CachedStatisticsAreBitwiseIdentical) {
  const Dataset data = SparseBinaryData();
  const Vector theta = Trainedish(data, 4);
  const LogisticRegressionSpec spec(1e-3);

  FeatureGramCache cache;
  StatsOptions cached = GramPathOptions();
  cached.gram_cache = &cache;
  cached.gram_key = {7, data.num_rows()};

  Rng rng_a(23), rng_b(23), rng_c(23);
  const auto first = ComputeStatistics(spec, theta, data, cached, &rng_a);
  const auto second = ComputeStatistics(spec, theta, data, cached, &rng_b);
  const auto uncached =
      ComputeStatistics(spec, theta, data, GramPathOptions(), &rng_c);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  const Vector z = testing::RandomVector(first->rank(), &rng_a);
  ExpectVectorNear(first->DrawWithZ(1.0, z), second->DrawWithZ(1.0, z), 0.0,
                   "cache hit vs miss");
  ExpectVectorNear(first->DrawWithZ(1.0, z), uncached->DrawWithZ(1.0, z), 0.0,
                   "cached vs local Gram");
}

// ---------- Thread-count determinism ----------

// The new sparse kernels (coefficients, ScaleRows, rescaled Gram) feed
// deterministic chunk layouts, so the whole statistics computation must be
// bitwise identical at 1, 2, and 8 threads.
TEST(SparseStatsDeterminism, StatisticsBitwiseIdenticalAcrossThreadCounts) {
  const Dataset data = SparseBinaryData();
  const Vector theta = Trainedish(data, 5);
  const LogisticRegressionSpec spec(1e-3);

  testing::ExpectThreadCountInvariant(
      [&] {
        Rng rng(31);
        auto sampler =
            ComputeStatistics(spec, theta, data, GramPathOptions(), &rng);
        EXPECT_TRUE(sampler.ok());
        Rng draw_rng(77);
        return sampler->Draw(1.0, &draw_rng);
      },
      {1, 2, 8}, "sparse statistics thread sweep");
}

}  // namespace
}  // namespace blinkml
