#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/accuracy_estimator.h"
#include "core/sample_size_estimator.h"
#include "core/statistics.h"
#include "data/generators.h"
#include "models/logistic_regression.h"
#include "models/linear_regression.h"
#include "models/max_entropy.h"
#include "models/poisson_regression.h"
#include "models/ppca.h"
#include "models/trainer.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "tests/reference/reference.h"
#include "tests/test_util.h"

namespace blinkml {
namespace {

// EstimatorFixture's data, and the logistic case of the score paths.
Dataset LogisticData() {
  return MakeSyntheticLogistic(30000, 10, 42, /*sparsity=*/1.0,
                               /*noise=*/0.1);
}

// The estimators' inputs: a 5% holdout, the pool, and an initial model
// trained on n0 = 2,000 pool rows with its parameter sampler.
class EstimatorInputs {
 protected:
  void Prepare(const ModelSpec& spec, const Dataset& full_data) {
    Rng rng(1);
    auto [holdout, pool] = full_data.Split(0.05, &rng);
    holdout_ = std::move(holdout);
    pool_ = std::move(pool);
    d0_ = pool_.SampleRows(n0_, &rng);
    const auto model = ModelTrainer().Train(spec, d0_);
    ASSERT_TRUE(model.ok());
    theta0_ = model->theta;
    StatsOptions options;
    Rng stats_rng(2);
    auto stats = ComputeStatistics(spec, theta0_, d0_, options, &stats_rng);
    ASSERT_TRUE(stats.ok());
    sampler_ = std::make_unique<ParamSampler>(std::move(*stats));
  }

  Dataset holdout_, pool_, d0_;
  Dataset::Index n0_ = 2000;
  Vector theta0_;
  std::unique_ptr<ParamSampler> sampler_;
};

// Fixture: a trained initial logistic model + sampler + holdout, shared
// across estimator tests.
class EstimatorFixture : public ::testing::Test, protected EstimatorInputs {
 protected:
  void SetUp() override { Prepare(spec_, LogisticData()); }

  LogisticRegressionSpec spec_{1e-3};
};

// ---------- Accuracy estimator ----------

TEST_F(EstimatorFixture, AccuracyZeroWhenSampleIsFullData) {
  AccuracyOptions options;
  Rng rng(3);
  const auto est =
      EstimateAccuracy(spec_, theta0_, pool_.num_rows(), pool_.num_rows(),
                       *sampler_, holdout_, options, &rng);
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(est->epsilon, 0.0);
}

TEST_F(EstimatorFixture, AccuracyBoundShrinksWithLargerSample) {
  AccuracyOptions options;
  options.num_samples = 256;
  const Dataset::Index full = pool_.num_rows();
  double prev = 2.0;
  for (const Dataset::Index n : {500, 2000, 8000, 20000}) {
    Rng rng(4);
    const auto est = EstimateAccuracy(spec_, theta0_, n, full, *sampler_,
                                      holdout_, options, &rng);
    ASSERT_TRUE(est.ok());
    EXPECT_LE(est->epsilon, prev + 0.02) << "n=" << n;
    EXPECT_GE(est->epsilon, 0.0);
    prev = est->epsilon;
  }
}

TEST_F(EstimatorFixture, AccuracyBoundIsConservative) {
  // The estimated bound must exceed the mean sampled difference (it is an
  // upper quantile).
  AccuracyOptions options;
  Rng rng(5);
  const auto est = EstimateAccuracy(spec_, theta0_, n0_, pool_.num_rows(),
                                    *sampler_, holdout_, options, &rng);
  ASSERT_TRUE(est.ok());
  EXPECT_GE(est->epsilon, est->mean_v);
  EXPECT_GT(est->quantile_level, 0.9);
}

TEST_F(EstimatorFixture, AccuracyBoundCoversActualDifference) {
  // Statistical check of the guarantee itself: train the *actual* full
  // model and verify v(m0, mN) <= estimated epsilon. A single run can fail
  // with probability <= delta; use delta = 0.2 and require 4/5 successes.
  AccuracyOptions options;
  options.delta = 0.2;
  options.num_samples = 512;
  const auto full_model = ModelTrainer().Train(spec_, pool_);
  ASSERT_TRUE(full_model.ok());
  int covered = 0;
  for (int trial = 0; trial < 5; ++trial) {
    Rng rng(100 + trial);
    Rng sample_rng(200 + trial);
    const Dataset d0 = pool_.SampleRows(n0_, &sample_rng);
    const auto m0 = ModelTrainer().Train(spec_, d0);
    ASSERT_TRUE(m0.ok());
    StatsOptions stats_options;
    auto stats =
        ComputeStatistics(spec_, m0->theta, d0, stats_options, &rng);
    ASSERT_TRUE(stats.ok());
    const auto est =
        EstimateAccuracy(spec_, m0->theta, n0_, pool_.num_rows(), *stats,
                         holdout_, options, &rng);
    ASSERT_TRUE(est.ok());
    const double actual_v =
        spec_.Diff(m0->theta, full_model->theta, holdout_);
    if (actual_v <= est->epsilon) ++covered;
  }
  EXPECT_GE(covered, 4);
}

TEST_F(EstimatorFixture, AccuracyRejectsBadArguments) {
  AccuracyOptions options;
  Rng rng(6);
  EXPECT_FALSE(EstimateAccuracy(spec_, theta0_, 0, 100, *sampler_, holdout_,
                                options, &rng)
                   .ok());
  EXPECT_FALSE(EstimateAccuracy(spec_, theta0_, 200, 100, *sampler_,
                                holdout_, options, &rng)
                   .ok());
  options.num_samples = 0;
  EXPECT_FALSE(EstimateAccuracy(spec_, theta0_, 100, 200, *sampler_,
                                holdout_, options, &rng)
                   .ok());
  options.num_samples = 10;
  options.delta = 0.0;
  EXPECT_FALSE(EstimateAccuracy(spec_, theta0_, 100, 200, *sampler_,
                                holdout_, options, &rng)
                   .ok());
}

// ---------- Sample size estimator ----------

TEST_F(EstimatorFixture, SizeGrowsAsEpsilonShrinks) {
  // Paper Section 5.2: more accurate models need larger samples.
  SampleSizeOptions options;
  options.num_samples = 128;
  Dataset::Index prev = 0;
  for (const double eps : {0.20, 0.10, 0.05, 0.02, 0.01}) {
    options.epsilon = eps;
    Rng rng(7);
    const auto est = EstimateSampleSize(spec_, theta0_, n0_,
                                        pool_.num_rows(), *sampler_,
                                        holdout_, options, &rng);
    ASSERT_TRUE(est.ok());
    EXPECT_GE(est->sample_size, prev) << "eps=" << eps;
    EXPECT_LE(est->sample_size, pool_.num_rows());
    prev = est->sample_size;
  }
}

TEST_F(EstimatorFixture, TrivialContractNeedsMinimalSample) {
  SampleSizeOptions options;
  options.epsilon = 1.0;  // any model agrees within 1.0
  options.min_n = 100;
  Rng rng(8);
  const auto est =
      EstimateSampleSize(spec_, theta0_, n0_, pool_.num_rows(), *sampler_,
                         holdout_, options, &rng);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->sample_size, 100);
}

TEST_F(EstimatorFixture, ImpossibleContractReturnsFullSize) {
  SampleSizeOptions options;
  options.epsilon = 0.0;  // exact agreement: only n = N guarantees it
  Rng rng(9);
  const auto est =
      EstimateSampleSize(spec_, theta0_, n0_, pool_.num_rows(), *sampler_,
                         holdout_, options, &rng);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->sample_size, pool_.num_rows());
}

TEST_F(EstimatorFixture, SuccessProbabilityMonotoneInN) {
  // Paper Theorem 2: the success probability increases with n. Verify on
  // the estimator's own Monte-Carlo estimate (common random numbers make
  // this hold path-by-path up to small noise).
  SampleSizeOptions options;
  options.epsilon = 0.05;
  options.num_samples = 128;
  // Probe the internal estimate through its observable: the returned
  // success fraction at increasing min_n floors.
  double prev_fraction = -1.0;
  for (const Dataset::Index floor_n : {2000, 8000, 16000}) {
    options.min_n = floor_n;
    Rng rng(10);
    const auto est =
        EstimateSampleSize(spec_, theta0_, n0_, pool_.num_rows(), *sampler_,
                           holdout_, options, &rng);
    ASSERT_TRUE(est.ok());
    if (est->sample_size == floor_n) {
      EXPECT_GE(est->success_fraction + 0.05, prev_fraction);
      prev_fraction = est->success_fraction;
    }
  }
}

TEST_F(EstimatorFixture, EstimatedSizeActuallySatisfiesContract) {
  // End-to-end: train on the estimated n; the result should agree with
  // the actually-trained full model within eps (statistical: 4/5 trials).
  SampleSizeOptions options;
  options.epsilon = 0.08;
  options.delta = 0.2;
  const auto full_model = ModelTrainer().Train(spec_, pool_);
  ASSERT_TRUE(full_model.ok());
  int satisfied = 0;
  for (int trial = 0; trial < 5; ++trial) {
    Rng rng(300 + trial);
    const auto est =
        EstimateSampleSize(spec_, theta0_, n0_, pool_.num_rows(), *sampler_,
                           holdout_, options, &rng);
    ASSERT_TRUE(est.ok());
    Rng sample_rng(400 + trial);
    const Dataset dn = pool_.SampleRows(est->sample_size, &sample_rng);
    const auto mn = ModelTrainer().Train(spec_, dn);
    ASSERT_TRUE(mn.ok());
    if (spec_.Diff(mn->theta, full_model->theta, holdout_) <=
        options.epsilon) {
      ++satisfied;
    }
  }
  EXPECT_GE(satisfied, 4);
}

TEST_F(EstimatorFixture, SizeEstimatorRejectsBadArguments) {
  SampleSizeOptions options;
  Rng rng(11);
  EXPECT_FALSE(EstimateSampleSize(spec_, theta0_, 0, 100, *sampler_,
                                  holdout_, options, &rng)
                   .ok());
  options.epsilon = -1.0;
  EXPECT_FALSE(EstimateSampleSize(spec_, theta0_, n0_, pool_.num_rows(),
                                  *sampler_, holdout_, options, &rng)
                   .ok());
}

// ---------- Batched Monte-Carlo draws ----------

TEST(DrawBatch, BitwiseEqualsDrawWithZAcrossBackends) {
  Rng rng(71);
  const Matrix::Index p = 37;
  const Matrix::Index r = 9;
  const Matrix::Index ns = 50;
  const Matrix w = testing::RandomMatrix(p, r, &rng);
  const Matrix q_dense = testing::RandomMatrix(ns, p, &rng);
  const Matrix v_scaled = testing::RandomMatrix(ns, r, &rng);
  const Dataset sparse_data =
      testing::SparseBinaryData(ns, p, /*seed=*/72, /*nnz_per_row=*/6);
  const ParamSampler samplers[] = {
      ParamSampler::FromDenseFactor(w),
      ParamSampler::FromGramFactor(q_dense, v_scaled),
      ParamSampler::FromSparseGramFactor(sparse_data.sparse(), v_scaled),
  };
  const char* names[] = {"dense", "gram", "sparse-gram"};
  for (int s = 0; s < 3; ++s) {
    const ParamSampler& sampler = samplers[s];
    // Widths across a full kMultiVec group and odd remainders.
    for (const Matrix::Index width : {1, 3, 5, 8, 11}) {
      const Matrix zs = testing::RandomMatrix(width, r, &rng);
      for (const double scale : {1.0, 0.3}) {
        const std::vector<Vector> batch = sampler.DrawBatch(scale, zs);
        ASSERT_EQ(batch.size(), static_cast<std::size_t>(width));
        for (Matrix::Index b = 0; b < width; ++b) {
          const Vector single = sampler.DrawWithZ(scale, zs.Row(b));
          ASSERT_EQ(batch[static_cast<std::size_t>(b)].size(), single.size());
          for (Vector::Index i = 0; i < single.size(); ++i) {
            ASSERT_EQ(batch[static_cast<std::size_t>(b)][i], single[i])
                << names[s] << " width=" << width << " scale=" << scale
                << " draw " << b << " elem " << i;
          }
        }
      }
    }
  }
}

TEST(DrawBatch, DegenerateShapes) {
  Rng rng(73);
  // Rank-1 factor and single-parameter (p = 1) factor.
  const ParamSampler rank1 =
      ParamSampler::FromDenseFactor(testing::RandomMatrix(20, 1, &rng));
  const ParamSampler p1 =
      ParamSampler::FromDenseFactor(testing::RandomMatrix(1, 4, &rng));
  for (const ParamSampler* sampler : {&rank1, &p1}) {
    const Matrix zs = testing::RandomMatrix(5, sampler->rank(), &rng);
    const std::vector<Vector> batch = sampler->DrawBatch(0.5, zs);
    ASSERT_EQ(batch.size(), 5u);
    for (Matrix::Index b = 0; b < 5; ++b) {
      const Vector single = sampler->DrawWithZ(0.5, zs.Row(b));
      for (Vector::Index i = 0; i < single.size(); ++i) {
        ASSERT_EQ(batch[static_cast<std::size_t>(b)][i], single[i]);
      }
    }
  }
  // Empty batch.
  const Matrix empty(0, rank1.rank());
  EXPECT_TRUE(rank1.DrawBatch(1.0, empty).empty());
}

// ---------- Every score path against the per-draw oracle ----------

// One model class per case, each scored by its own verdict path: logistic
// counts sign flips (GlmSpec::DiffsFromScoreBatch), linear and Poisson
// regression and max-entropy take the materializing ModelSpec default.
// The logistic case is EstimatorFixture's; size_epsilon lands each
// case's size search well inside (min_n, N) at delta 0.05 and 0.3.
struct ScorePathCase {
  const char* name;
  std::function<std::unique_ptr<ModelSpec>()> make_spec;
  std::function<Dataset()> make_data;
  double size_epsilon;
};

std::vector<ScorePathCase> ScorePathCases() {
  return {
      {"Logistic",
       [] { return std::make_unique<LogisticRegressionSpec>(1e-3); },
       LogisticData, 0.05},
      {"Linear", [] { return std::make_unique<LinearRegressionSpec>(1e-3); },
       [] { return MakeSyntheticLinear(30000, 10, 43); }, 0.03},
      {"Poisson",
       [] { return std::make_unique<PoissonRegressionSpec>(1e-3); },
       [] { return MakeSyntheticCounts(30000, 10, 44); }, 0.07},
      {"MaxEntropy", [] { return std::make_unique<MaxEntropySpec>(1e-3); },
       [] { return MakeSyntheticMulticlass(30000, 10, 3, 45); }, 0.012},
  };
}

class ScorePathFixture : public ::testing::TestWithParam<ScorePathCase>,
                         protected EstimatorInputs {
 protected:
  void SetUp() override {
    spec_ = GetParam().make_spec();
    Prepare(*spec_, GetParam().make_data());
  }

  std::unique_ptr<ModelSpec> spec_;
};

TEST_P(ScorePathFixture, BatchedAccuracyBitwiseEqualsUnbatched) {
  // Batching is a pure execution strategy: same z stream, same kernels
  // per column, so the estimate is bit-for-bit the reference per-draw
  // estimator's.
  AccuracyOptions options;
  options.num_samples = 100;  // not a multiple of kMultiVec on purpose
  Rng rng_a(21);
  const auto batched =
      EstimateAccuracy(*spec_, theta0_, n0_, pool_.num_rows(), *sampler_,
                       holdout_, options, &rng_a);
  Rng rng_b(21);
  const AccuracyEstimate unbatched = reference::EstimateAccuracyPerDraw(
      *spec_, theta0_, n0_, pool_.num_rows(), *sampler_, holdout_, options,
      &rng_b);
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(batched->epsilon, unbatched.epsilon);
  EXPECT_EQ(batched->mean_v, unbatched.mean_v);
}

TEST_P(ScorePathFixture, BatchedSampleSizeBitwiseEqualsUnbatched) {
  SampleSizeOptions options;
  options.num_samples = 60;  // not a multiple of kMultiVec on purpose
  options.epsilon = GetParam().size_epsilon;
  Rng rng_a(22);
  const auto batched =
      EstimateSampleSize(*spec_, theta0_, n0_, pool_.num_rows(), *sampler_,
                         holdout_, options, &rng_a);
  Rng rng_b(22);
  const SampleSizeEstimate unbatched = reference::EstimateSampleSizePerDraw(
      *spec_, theta0_, n0_, pool_.num_rows(), *sampler_, holdout_, options,
      &rng_b);
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(batched->sample_size, unbatched.sample_size);
  EXPECT_EQ(batched->success_fraction, unbatched.success_fraction);
  EXPECT_EQ(batched->evaluations, unbatched.evaluations);
}

TEST_P(ScorePathFixture, BatchedEstimatorsThreadCountInvariant) {
  // The chunk layout (and so the z-block boundaries) is a pure function
  // of the sample count; with batching on the drawn bits must still be
  // identical at 1, 2, and 8 threads.
  AccuracyOptions acc_options;
  acc_options.num_samples = 100;
  testing::ExpectThreadCountInvariant(
      [&] {
        Rng rng(23);
        const auto est =
            EstimateAccuracy(*spec_, theta0_, n0_, pool_.num_rows(),
                             *sampler_, holdout_, acc_options, &rng);
        EXPECT_TRUE(est.ok());
        Vector out(2);
        out[0] = est->epsilon;
        out[1] = est->mean_v;
        return out;
      },
      {1, 2, 8}, "batched accuracy estimate");

  SampleSizeOptions size_options;
  size_options.num_samples = 60;
  size_options.epsilon = GetParam().size_epsilon;
  testing::ExpectThreadCountInvariant(
      [&] {
        Rng rng(24);
        const auto est =
            EstimateSampleSize(*spec_, theta0_, n0_, pool_.num_rows(),
                               *sampler_, holdout_, size_options, &rng);
        EXPECT_TRUE(est.ok());
        Vector out(3);
        out[0] = static_cast<double>(est->sample_size);
        out[1] = est->success_fraction;
        out[2] = static_cast<double>(est->evaluations);
        return out;
      },
      {1, 2, 8}, "batched sample-size estimate");
}

// The search scores each group of 8 pairs with one DiffsFromScoreBatch
// call and stops scanning a candidate at its next group once more pairs
// have failed than the level allows. That must change nothing it
// returns: the size, the (full-count) success fraction, the evaluation
// count and the level equal the per-draw reference, which scans every
// pair, at 1, 2 and 8 threads.
TEST_P(ScorePathFixture, EarlyExitMatchesPerDrawReference) {
  struct Case {
    const char* what;
    double epsilon;
    double delta;
    int num_samples;
  };
  const double epsilon = GetParam().size_epsilon;
  const std::vector<Case> cases = {
      {"level 1 (delta 0.05)", epsilon, 0.05, 60},
      {"level below 1 (delta 0.3)", epsilon, 0.3, 128},
      {"returns N (epsilon 0)", 0.0, 0.05, 60}};
  ThreadPool pool(8);
  for (const Case& c : cases) {
    SampleSizeOptions options;
    options.epsilon = c.epsilon;
    options.delta = c.delta;
    options.num_samples = c.num_samples;
    Rng ref_rng(28);
    const SampleSizeEstimate want = reference::EstimateSampleSizePerDraw(
        *spec_, theta0_, n0_, pool_.num_rows(), *sampler_, holdout_, options,
        &ref_rng);
    if (c.delta > 0.05) {
      // Some failures are allowed, and the returned n has some: a feasible
      // candidate that an exit after the first failure would have lost.
      EXPECT_LE(want.quantile_level,
                1.0 - 1.0 / static_cast<double>(c.num_samples))
          << c.what;
      EXPECT_LT(want.success_fraction, 1.0) << c.what;
    }
    if (c.epsilon == 0.0) {
      EXPECT_EQ(want.sample_size, pool_.num_rows());
    } else {
      EXPECT_LT(want.sample_size, pool_.num_rows()) << c.what;
    }
    for (const int threads : {1, 2, 8}) {
      RuntimeOptions runtime;
      runtime.pool = &pool;
      runtime.num_threads = threads;
      RuntimeScope scope(runtime);
      Rng rng(28);
      const auto got =
          EstimateSampleSize(*spec_, theta0_, n0_, pool_.num_rows(),
                             *sampler_, holdout_, options, &rng);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->sample_size, want.sample_size)
          << c.what << " threads=" << threads;
      EXPECT_EQ(got->success_fraction, want.success_fraction)
          << c.what << " threads=" << threads;
      EXPECT_EQ(got->evaluations, want.evaluations)
          << c.what << " threads=" << threads;
      EXPECT_EQ(got->quantile_level, want.quantile_level)
          << c.what << " threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Specs, ScorePathFixture,
                         ::testing::ValuesIn(ScorePathCases()),
                         [](const ::testing::TestParamInfo<ScorePathCase>&
                                info) { return std::string(info.param.name); });

// ---------- Search-evaluation accounting (memoized candidates) ----------

int CeilLog2(Dataset::Index len) {
  int bits = 0;
  while ((Dataset::Index{1} << bits) < len) ++bits;
  return bits;
}

TEST_F(EstimatorFixture, TrivialContractEvaluatesOnce) {
  // The trivially feasible lower bound is evaluated exactly once: the
  // reported success fraction reads the memo instead of re-running the
  // Monte-Carlo pass (this used to cost a second full evaluation).
  SampleSizeOptions options;
  options.epsilon = 1.0;
  options.min_n = 100;
  Rng rng(25);
  const auto est =
      EstimateSampleSize(spec_, theta0_, n0_, pool_.num_rows(), *sampler_,
                         holdout_, options, &rng);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->sample_size, 100);
  EXPECT_EQ(est->evaluations, 1);
  EXPECT_GE(est->success_fraction, est->quantile_level);
}

TEST_F(EstimatorFixture, SearchEvaluatesEachCandidateOnce) {
  const Dataset::Index full_n = pool_.num_rows();
  const Dataset::Index lo0 = 100;

  // Infeasible contract: every bisection midpoint fails, so the interval
  // shrinks by ceil-halves — exactly CeilLog2(full_n - lo0) midpoints —
  // plus the initial lower bound and one final evaluation at full_n
  // (never probed as a midpoint).
  SampleSizeOptions options;
  options.epsilon = 0.0;
  options.min_n = lo0;
  Rng rng(26);
  const auto impossible =
      EstimateSampleSize(spec_, theta0_, n0_, full_n, *sampler_, holdout_,
                         options, &rng);
  ASSERT_TRUE(impossible.ok());
  ASSERT_EQ(impossible->sample_size, full_n);
  EXPECT_EQ(impossible->evaluations, 2 + CeilLog2(full_n - lo0));

  // Moderate contract: the distinct candidates are the lower bound plus
  // at most CeilLog2 midpoints; the final report at the returned n is
  // always served from the memo.
  options.epsilon = 0.05;
  Rng rng2(27);
  const auto mid = EstimateSampleSize(spec_, theta0_, n0_, full_n, *sampler_,
                                      holdout_, options, &rng2);
  ASSERT_TRUE(mid.ok());
  ASSERT_GT(mid->sample_size, lo0);
  ASSERT_LT(mid->sample_size, full_n);
  EXPECT_LE(mid->evaluations, 1 + CeilLog2(full_n - lo0));
  EXPECT_GE(mid->evaluations, 2);
}

// The generic (non-score) path must work for PPCA.
TEST(EstimatorGeneric, PpcaSampleSizeSearch) {
  const Dataset data = MakeSyntheticLowRank(20000, 8, 2, 50, /*noise=*/0.4);
  Rng rng(12);
  auto [holdout, pool] = data.Split(0.05, &rng);
  PpcaSpec spec(2);
  const Dataset d0 = pool.SampleRows(1000, &rng);
  const auto m0 = ModelTrainer().Train(spec, d0);
  ASSERT_TRUE(m0.ok());
  StatsOptions stats_options;
  auto stats = ComputeStatistics(spec, m0->theta, d0, stats_options, &rng);
  ASSERT_TRUE(stats.ok());
  SampleSizeOptions options;
  options.num_samples = 64;
  options.epsilon = 1e-4;  // tight cosine-distance contract
  const auto est = EstimateSampleSize(spec, m0->theta, 1000,
                                      pool.num_rows(), *stats, holdout,
                                      options, &rng);
  ASSERT_TRUE(est.ok());
  EXPECT_GT(est->sample_size, 1000);

  // A loose contract needs fewer rows.
  options.epsilon = 0.05;
  Rng rng2(13);
  const auto loose = EstimateSampleSize(spec, m0->theta, 1000,
                                        pool.num_rows(), *stats, holdout,
                                        options, &rng2);
  ASSERT_TRUE(loose.ok());
  EXPECT_LT(loose->sample_size, est->sample_size);
}

}  // namespace
}  // namespace blinkml
