// Dense feature-Gram rescale path: Gram(diag(c) X) = diag(c) Gram(X)
// diag(c) wired into ObservedFisher for dense designs (p > n_s), sharing
// the candidate-independent Gram(X) through the FeatureGramCache exactly
// as the sparse path does.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "core/statistics.h"
#include "data/feature_gram_cache.h"
#include "models/logistic_regression.h"
#include "session/hyperparam_search.h"
#include "session/training_session.h"
#include "tests/reference/reference.h"
#include "tests/test_util.h"

namespace blinkml {
namespace {

using testing::SmallDenseLogistic;
using testing::ExpectVectorNear;
using testing::Trainedish;

StatsOptions GramPathOptions() {
  StatsOptions options;
  options.stats_sample_size = 128;  // below dim: Gram path engaged
  options.max_rank = 64;
  return options;
}

// The rescaled feature Gram must match the Gram of the coefficient-scaled
// rows to floating-point rounding (the dense analogue of the sparse
// rescale-vs-merge oracle). Checked twice: with the reference loops
// throughout (RowDot coefficients, identical-order Gram dots) the
// identity holds to 1e-12; the kernels' multi-chain dots reassociate the
// cancellation-prone entries and sit a small factor above.
TEST(DenseGramRescale, GramEntriesAgreeToTightRelativeTolerance) {
  const Dataset data = SmallDenseLogistic(200, 300, 7);
  const Vector theta = Trainedish(data, 2);
  const LogisticRegressionSpec spec(1e-3);
  const Matrix& x = data.dense();

  auto max_rel_error = [&](const Vector& coeffs, const Matrix& q,
                           Matrix (*gram)(const Matrix&)) {
    const Matrix gram_x = gram(x);
    const Matrix gram_direct = gram(q);
    double max_rel = 0.0;
    for (Matrix::Index i = 0; i < gram_x.rows(); ++i) {
      for (Matrix::Index j = 0; j < gram_x.cols(); ++j) {
        const double rescaled = coeffs[i] * coeffs[j] * gram_x(i, j);
        const double direct = gram_direct(i, j);
        const double scale = std::max(std::abs(direct), 1e-30);
        max_rel = std::max(max_rel, std::abs(rescaled - direct) / scale);
      }
    }
    return max_rel;
  };

  const Vector ref_coeffs = reference::LogisticGradientCoeffs(theta, data);
  Matrix ref_q(x.rows(), x.cols());
  for (Matrix::Index i = 0; i < x.rows(); ++i) {
    for (Matrix::Index j = 0; j < x.cols(); ++j) {
      ref_q(i, j) = ref_coeffs[i] * x(i, j);
    }
  }
  EXPECT_LE(max_rel_error(ref_coeffs, ref_q, &reference::GramRows), 1e-12)
      << "reference";

  Vector coeffs;
  spec.PerExampleGradientCoeffs(theta, data, &coeffs);
  Matrix q;
  spec.PerExampleGradients(theta, data, &q);
  EXPECT_LE(max_rel_error(coeffs, q, &GramRows), 1e-10) << "kernels";
}

// End-to-end: ComputeStatistics on the dense rescale path and on the
// direct path (the same model without gradient coefficients) produces
// samplers whose variances agree to rounding.
TEST(DenseGramRescale, ObservedFisherSamplersAgree) {
  const Dataset data = SmallDenseLogistic(300, 400, 7);
  const Vector theta = Trainedish(data, 3);
  const LogisticRegressionSpec spec(1e-3);
  const testing::MergePathLogistic direct_spec(1e-3);

  Rng rng_a(17), rng_b(17);
  const auto with_rescale =
      ComputeStatistics(spec, theta, data, GramPathOptions(), &rng_a);
  const auto direct =
      ComputeStatistics(direct_spec, theta, data, GramPathOptions(), &rng_b);
  ASSERT_TRUE(with_rescale.ok()) << with_rescale.status().ToString();
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(with_rescale->rank(), direct->rank());

  const auto var_a = with_rescale->VarianceDiagonal();
  const auto var_b = direct->VarianceDiagonal();
  ASSERT_TRUE(var_a.ok());
  ASSERT_TRUE(var_b.ok());
  double max_var = 0.0;
  for (Vector::Index i = 0; i < var_b->size(); ++i) {
    max_var = std::max(max_var, std::abs((*var_b)[i]));
  }
  ASSERT_GT(max_var, 0.0);
  for (Vector::Index i = 0; i < var_a->size(); ++i) {
    EXPECT_NEAR((*var_a)[i], (*var_b)[i], 1e-10 * max_var) << "entry " << i;
  }
}

// Cache accounting on the dense path: one miss, then hits; cached and
// locally-computed Grams produce bitwise-identical samplers.
TEST(DenseGramRescale, CacheHitMissAccountingAndBitwiseDraws) {
  const Dataset data = SmallDenseLogistic(300, 400, 7);
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
  EXPECT_GT(cache.stats().cached_bytes, 0u);

  const Vector z = testing::RandomVector(first->rank(), &rng_a);
  ExpectVectorNear(first->DrawWithZ(1.0, z), second->DrawWithZ(1.0, z), 0.0,
                   "cache hit vs miss");
  ExpectVectorNear(first->DrawWithZ(1.0, z), uncached->DrawWithZ(1.0, z), 0.0,
                   "cached vs local Gram");
}

// An 8-candidate dense search through a session: the statistics phase
// must hit the shared dense feature Gram at least 7 times (one miss pays
// the Gram, every other candidate rescales), and every candidate must be
// bitwise identical to its standalone run.
TEST(DenseGramRescale, EightCandidateDenseSearchSharesTheGram) {
  const Dataset data = testing::SmallDenseLogistic(20000, /*dim=*/400,
                                                   /*seed=*/9);
  BlinkConfig config = testing::FastConfig(11);
  config.stats_sample_size = 128;  // p = 400 > n_s: dense Gram path
  const std::vector<Candidate> candidates =
      HyperparamSearch::LogGrid(1e-4, 1e-1, 8);
  const auto factory = [](const Candidate& c) {
    return std::make_shared<LogisticRegressionSpec>(c.l2);
  };

  TrainingSession session(Dataset(data), config);
  SearchOptions options;
  options.contract = testing::kTightContract;
  HyperparamSearch search(&session, options);
  const SearchOutcome outcome = search.Run(factory, candidates);

  const Coordinator coordinator(config);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const CandidateResult& cr = outcome.candidates[i];
    ASSERT_TRUE(cr.status.ok()) << cr.status.ToString();
    const LogisticRegressionSpec spec(candidates[i].l2);
    const auto standalone =
        coordinator.Train(spec, data, testing::kTightContract);
    ASSERT_TRUE(standalone.ok());
    testing::ExpectBitwiseEqual(cr.result, *standalone, "dense search");
  }

  const auto& gram_stats = outcome.session_stats.gram_cache;
  // All 8 candidates share one statistics Gram: 1 miss + 7 hits.
  EXPECT_EQ(gram_stats.hits, 7u);
  EXPECT_EQ(gram_stats.misses, 1u);
}

// The dense rescale kernels feed deterministic chunk layouts: bitwise
// identical statistics at 1, 2, and 8 threads.
TEST(DenseGramRescale, StatisticsBitwiseIdenticalAcrossThreadCounts) {
  const Dataset data = SmallDenseLogistic(300, 400, 7);
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
      {1, 2, 8}, "dense statistics thread sweep");
}

}  // namespace
}  // namespace blinkml
