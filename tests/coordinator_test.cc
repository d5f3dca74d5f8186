#include <cstring>

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "core/coordinator.h"
#include "data/generators.h"
#include "models/linear_regression.h"
#include "models/logistic_regression.h"
#include "models/max_entropy.h"
#include "models/poisson_regression.h"
#include "models/ppca.h"
#include "runtime/runtime_options.h"
#include "tests/test_util.h"

namespace blinkml {
namespace {

BlinkConfig FastConfig(std::uint64_t seed = 42) {
  BlinkConfig config;
  config.initial_sample_size = 1000;
  config.holdout_size = 1000;
  config.accuracy_samples = 256;
  config.size_samples = 128;
  config.seed = seed;
  return config;
}

TEST(Coordinator, RejectsBadContractAndTinyData) {
  const Coordinator coordinator(FastConfig());
  LogisticRegressionSpec spec;
  const Dataset data = MakeSyntheticLogistic(5000, 4, 1);
  EXPECT_FALSE(coordinator.Train(spec, data, {0.05, 0.0}).ok());
  EXPECT_FALSE(coordinator.Train(spec, data, {-0.1, 0.5}).ok());
  const Dataset tiny = MakeSyntheticLogistic(5, 2, 2);
  EXPECT_FALSE(coordinator.Train(spec, tiny, {0.05, 0.05}).ok());
}

// A config no run can complete is refused before anything is sampled,
// the same rule the wire applies to registrations (net::ValidateWireConfig).
TEST(Coordinator, RefusesConfigsNoTrainCanRun) {
  const Dataset logistic = MakeSyntheticLogistic(5000, 5, 1);
  const Dataset linear = MakeSyntheticLinear(5000, 5, 1);
  const LogisticRegressionSpec logistic_spec;
  const LinearRegressionSpec linear_spec(1e-3);
  const auto expect_refused = [](const Result<ApproxResult>& result,
                                 const char* what) {
    ASSERT_FALSE(result.ok()) << what;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << what << ": " << result.status().ToString();
  };

  BlinkConfig negative_n0 = FastConfig();
  negative_n0.initial_sample_size = -5;
  expect_refused(
      Coordinator(negative_n0).Train(logistic_spec, logistic, {0.05, 0.05}),
      "n0 = -5");
  BlinkConfig zero_n0 = FastConfig();
  zero_n0.initial_sample_size = 0;
  expect_refused(
      Coordinator(zero_n0).Train(logistic_spec, logistic, {0.05, 0.05}),
      "n0 = 0");
  // Regression scales v by the holdout labels' spread: one row has none.
  BlinkConfig one_row_holdout = FastConfig();
  one_row_holdout.holdout_size = 1;
  expect_refused(
      Coordinator(one_row_holdout).Train(linear_spec, linear, {0.05, 0.05}),
      "holdout_size = 1");
  BlinkConfig no_accuracy_draws = FastConfig();
  no_accuracy_draws.accuracy_samples = 0;
  expect_refused(Coordinator(no_accuracy_draws)
                     .Train(logistic_spec, logistic, {0.05, 0.05}),
                 "accuracy_samples = 0");
  BlinkConfig no_size_draws = FastConfig();
  no_size_draws.size_samples = -1;
  expect_refused(
      Coordinator(no_size_draws).Train(logistic_spec, logistic, {0.05, 0.05}),
      "size_samples = -1");

  // The smallest configs the rule admits still train.
  BlinkConfig smallest = FastConfig();
  smallest.holdout_size = 2;
  smallest.accuracy_samples = 1;
  smallest.size_samples = 1;
  const auto admitted =
      Coordinator(smallest).Train(linear_spec, linear, {0.05, 0.05});
  EXPECT_TRUE(admitted.ok()) << admitted.status().ToString();
}

TEST(Coordinator, LooseContractReturnsInitialModel) {
  const Coordinator coordinator(FastConfig());
  LogisticRegressionSpec spec;
  const Dataset data = MakeSyntheticLogistic(20000, 6, 3);
  const auto result = coordinator.Train(spec, data, {0.9, 0.05});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->used_initial_only);
  EXPECT_EQ(result->sample_size, 1000);
  EXPECT_LE(result->final_epsilon, 0.9);
  EXPECT_EQ(result->timings.final_train, 0.0);
}

TEST(Coordinator, TightContractTrainsSecondModel) {
  const Coordinator coordinator(FastConfig());
  LogisticRegressionSpec spec;
  const Dataset data = MakeSyntheticLogistic(20000, 6, 4);
  const auto result = coordinator.Train(spec, data, {0.01, 0.05});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->used_initial_only);
  EXPECT_GT(result->sample_size, 1000);
  EXPECT_GT(result->size_estimate.sample_size, 0);
  EXPECT_GT(result->timings.final_train, 0.0);
  EXPECT_GT(result->initial_epsilon, 0.01);
}

TEST(Coordinator, HoldoutIsDisjointFromPoolAccounting) {
  const Coordinator coordinator(FastConfig());
  LogisticRegressionSpec spec;
  const Dataset data = MakeSyntheticLogistic(20000, 4, 5);
  const auto result = coordinator.Train(spec, data, {0.5, 0.05});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->holdout->num_rows() + result->full_size, data.num_rows());
  EXPECT_EQ(result->holdout->num_rows(), 1000);
}

TEST(Coordinator, TimingsArePopulated) {
  const Coordinator coordinator(FastConfig());
  LogisticRegressionSpec spec;
  const Dataset data = MakeSyntheticLogistic(20000, 6, 6);
  const auto result = coordinator.Train(spec, data, {0.05, 0.05});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->timings.initial_train, 0.0);
  EXPECT_GT(result->timings.statistics, 0.0);
  EXPECT_GT(result->timings.accuracy_estimation, 0.0);
  EXPECT_GT(result->timings.total, 0.0);
  EXPECT_GE(result->timings.total,
            result->timings.initial_train + result->timings.statistics);
}

TEST(Coordinator, DeterministicGivenSeed) {
  LogisticRegressionSpec spec;
  const Dataset data = MakeSyntheticLogistic(20000, 5, 7);
  const Coordinator a(FastConfig(11));
  const Coordinator b(FastConfig(11));
  const auto ra = a.Train(spec, data, {0.05, 0.05});
  const auto rb = b.Train(spec, data, {0.05, 0.05});
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->sample_size, rb->sample_size);
  EXPECT_DOUBLE_EQ(ra->initial_epsilon, rb->initial_epsilon);
  testing::ExpectVectorNear(ra->model.theta, rb->model.theta, 0.0);
}

TEST(Coordinator, DenseRunIsBitwiseIdenticalAcrossKernelIsas) {
  // Every dense Monte-Carlo score runs the packed multi-vector rows, whose
  // AVX2 variant keeps the scalar association; a whole run through all
  // five phases must therefore return the same bits at either ISA.
  LogisticRegressionSpec spec;
  const Dataset data = MakeSyntheticLogistic(20000, 41, 9);
  auto run = [&](KernelIsa isa) {
    BlinkConfig config = FastConfig(13);
    config.runtime.kernel_isa = isa;
    return Coordinator(config).Train(spec, data, {0.01, 0.05});
  };
  RuntimeOptions avx2_scope;
  avx2_scope.kernel_isa = KernelIsa::kAvx2;
  {
    RuntimeScope scope(avx2_scope);
    if (CurrentKernelIsa() != KernelIsa::kAvx2) {
      GTEST_SKIP() << "CPU lacks AVX2+FMA";
    }
  }
  const auto scalar_run = run(KernelIsa::kScalar);
  const auto avx2_run = run(KernelIsa::kAvx2);
  ASSERT_TRUE(scalar_run.ok());
  ASSERT_TRUE(avx2_run.ok());
  const ApproxResult& scalar = *scalar_run;
  const ApproxResult& avx2 = *avx2_run;
  ASSERT_FALSE(scalar.used_initial_only);
  ASSERT_GT(scalar.final_iterations, 0);
  const auto same_bits = [](const void* a, const void* b, std::size_t n) {
    return std::memcmp(a, b, n) == 0;
  };
  ASSERT_EQ(avx2.model.theta.size(), scalar.model.theta.size());
  EXPECT_TRUE(same_bits(avx2.model.theta.data(), scalar.model.theta.data(),
                        sizeof(double) * scalar.model.theta.size()));
  EXPECT_TRUE(same_bits(&avx2.initial_epsilon, &scalar.initial_epsilon,
                        sizeof(double)));
  EXPECT_TRUE(same_bits(&avx2.final_epsilon, &scalar.final_epsilon,
                        sizeof(double)));
  EXPECT_EQ(avx2.sample_size, scalar.sample_size);
  EXPECT_TRUE(same_bits(&avx2.size_estimate.success_fraction,
                        &scalar.size_estimate.success_fraction,
                        sizeof(double)));
}

TEST(Coordinator, EpsilonZeroFallsBackToFullTraining) {
  const Coordinator coordinator(FastConfig());
  LogisticRegressionSpec spec;
  const Dataset data = MakeSyntheticLogistic(15000, 4, 8);
  const auto result = coordinator.Train(spec, data, {0.0, 0.05});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->sample_size, result->full_size);
  EXPECT_DOUBLE_EQ(result->final_epsilon, 0.0);
}

// The headline statistical property (paper Section 5.3 / Figure 6): with
// probability at least 1 - delta, the returned model disagrees with m_N,
// the model trained on the run's own pool, on at most epsilon of the
// holdout. Over T seeds a correct estimator's violations are then at most
// Bin(T, delta), so each case allows the upper Bin(T, delta) quantile at a
// 1e-3 false-alarm rate (7 of 40 at delta = 0.05, 11 of 40 at 0.1), with
// no slack on epsilon. The seeds are fixed, so the verdict is
// deterministic; bench_guarantee records the same check at more seeds.
// Case 1's epsilon is tight enough to see a loosened estimator: with
// ConservativeQuantileLevel forced to 0.5 it reads 20 violations of 40,
// against 0 at the real level.
class CoordinatorGuarantee : public ::testing::TestWithParam<int> {};

TEST_P(CoordinatorGuarantee, ViolationsStayWithinTheBinomialQuantile) {
  struct CaseDef {
    std::shared_ptr<ModelSpec> spec;
    Dataset data;
    ApproximationContract contract;
  };
  const int which = GetParam();
  const CaseDef c = [&]() -> CaseDef {
    switch (which) {
      case 0:
        return {std::make_shared<LinearRegressionSpec>(1e-3),
                MakeGasLike(30000, 100, /*dim=*/20), {0.05, 0.1}};
      case 1:
        return {std::make_shared<LogisticRegressionSpec>(1e-3),
                MakeHiggsLike(30000, 101, /*dim=*/20), {0.02, 0.1}};
      case 2:
        return {std::make_shared<MaxEntropySpec>(1e-3),
                MakeSyntheticMulticlass(30000, 8, 3, 102), {0.10, 0.1}};
      case 3:
        return {std::make_shared<PpcaSpec>(2),
                MakeSyntheticLowRank(30000, 10, 2, 103, /*noise=*/0.4),
                {0.01, 0.1}};
      default:
        return {std::make_shared<PoissonRegressionSpec>(1e-3),
                bench::WithConstantColumn(
                    MakeSyntheticCounts(30000, 10, 104)),
                {0.02, 0.05}};
    }
  }();

  const int trials = 40;
  int violations = 0;
  for (int t = 0; t < trials; ++t) {
    const Coordinator coordinator(FastConfig(1000 + 17 * t));
    const auto result = coordinator.Train(*c.spec, c.data, c.contract);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto full = coordinator.TrainFullModel(*c.spec, c.data);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    const double v =
        c.spec->Diff(result->model.theta, full->theta, *result->holdout);
    if (v > c.contract.epsilon) ++violations;
  }
  const int allowed =
      bench::BinomialUpperQuantile(trials, c.contract.delta, 1e-3);
  EXPECT_LE(violations, allowed)
      << "case " << which << ": " << violations << " violations of "
      << trials << " at delta " << c.contract.delta;
}

INSTANTIATE_TEST_SUITE_P(AllModels, CoordinatorGuarantee,
                         ::testing::Range(0, 5));

}  // namespace
}  // namespace blinkml
