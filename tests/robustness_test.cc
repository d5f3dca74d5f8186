// Failure-injection tests: degenerate inputs that a
// production system must reject cleanly or survive gracefully.

#include <cmath>

#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "core/statistics.h"
#include "linalg/eigen_sym.h"
#include "data/generators.h"
#include "models/linear_regression.h"
#include "models/logistic_regression.h"
#include "models/trainer.h"
#include "tests/test_util.h"

namespace blinkml {
namespace {

BlinkConfig TinyConfig() {
  BlinkConfig config;
  config.initial_sample_size = 500;
  config.holdout_size = 200;
  config.accuracy_samples = 64;
  config.size_samples = 32;
  config.seed = 3;
  return config;
}

TEST(Robustness, DuplicateRowsGiveSingularCovariance) {
  // A dataset made of one row repeated: the gradient covariance is rank
  // <= 1; statistics and the sampler must still work (the paper's
  // degenerate-direction handling) or fail cleanly.
  Matrix x(200, 4);
  Vector y(200);
  Rng rng(1);
  Vector proto = testing::RandomVector(4, &rng);
  for (int i = 0; i < 200; ++i) {
    for (int j = 0; j < 4; ++j) x(i, j) = proto[j];
    y[i] = static_cast<double>(i % 2);  // labels alternate
  }
  const Dataset data(std::move(x), std::move(y), Task::kBinary);
  LogisticRegressionSpec spec(1e-2);
  const auto model = ModelTrainer().Train(spec, data);
  ASSERT_TRUE(model.ok());
  StatsOptions options;
  Rng stats_rng(2);
  const auto stats =
      ComputeStatistics(spec, model->theta, data, options, &stats_rng);
  // Rank-1 J: either a usable (effectively rank-1) sampler or a clean
  // error. The dense factor keeps p columns, zeroing degenerate ones, so
  // check the covariance spectrum rather than the column count.
  if (stats.ok()) {
    Rng draw_rng(3);
    const Vector d = stats->Draw(1.0, &draw_rng);
    for (int j = 0; j < 4; ++j) EXPECT_TRUE(std::isfinite(d[j]));
    const auto cov = stats->DenseCovariance();
    ASSERT_TRUE(cov.ok());
    const auto eig = EigenSymValues(*cov);
    ASSERT_TRUE(eig.ok());
    // Second-largest eigenvalue negligible relative to the largest.
    EXPECT_LT((*eig)[2], 1e-6 * std::max((*eig)[3], 1e-300));
  } else {
    EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Robustness, PerfectFitHasNoUncertainty) {
  // Linear regression on exactly-linear data with no noise and no
  // regularization: every per-example gradient at the MLE is ~zero. The
  // statistics computation must report the degenerate case.
  Matrix x(100, 2);
  Vector y(100);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    x(i, 0) = rng.Normal();
    x(i, 1) = rng.Normal();
    y[i] = 2.0 * x(i, 0) - x(i, 1);  // exact linear function
  }
  const Dataset data(std::move(x), std::move(y), Task::kRegression);
  LinearRegressionSpec spec(0.0);
  const auto model = ModelTrainer().Train(spec, data);
  ASSERT_TRUE(model.ok());
  StatsOptions options;
  Rng stats_rng(5);
  const auto stats =
      ComputeStatistics(spec, model->theta, data, options, &stats_rng);
  // Either the degenerate case is detected outright (exactly zero
  // gradients) or — since the optimizer stops at a small but nonzero
  // gradient — the estimated parameter variance is negligible.
  if (stats.ok()) {
    const auto diag = stats->VarianceDiagonal();
    ASSERT_TRUE(diag.ok());
    for (int j = 0; j < 2; ++j) EXPECT_LT((*diag)[j], 1e-6);
  } else {
    EXPECT_NE(stats.status().message().find("zero"), std::string::npos);
  }
}

TEST(Robustness, AllSameLabelStillTrains) {
  // Logistic regression where every label is 1 and the model has an
  // intercept column: the MLE pushes the intercept toward +inf but L2
  // regularization keeps it finite; the coordinator should return a model
  // that predicts the single class everywhere.
  Matrix x(3000, 3);
  Rng rng(6);
  for (int i = 0; i < 3000; ++i) {
    x(i, 0) = rng.Normal();
    x(i, 1) = rng.Normal();
    x(i, 2) = 1.0;  // intercept
  }
  const Dataset data(std::move(x), Vector(3000, 1.0), Task::kBinary);
  LogisticRegressionSpec spec(1e-2);
  const Coordinator coordinator(TinyConfig());
  const auto result = coordinator.Train(spec, data, {0.05, 0.05});
  ASSERT_TRUE(result.ok());
  // The intercept dominates: nearly every prediction is class 1.
  Vector pred;
  spec.Predict(result->model.theta, *result->holdout, &pred);
  int ones = 0;
  for (Vector::Index i = 0; i < pred.size(); ++i) {
    if (pred[i] == 1.0) ++ones;
  }
  EXPECT_GE(static_cast<double>(ones) / static_cast<double>(pred.size()),
            0.95);
}

TEST(Robustness, ConstantLabelsRegressionHasUnitScale) {
  // Regression with constant labels: LabelScale falls back to 1 and the
  // contract machinery stays finite.
  Matrix x(2000, 2);
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    x(i, 0) = rng.Normal();
    x(i, 1) = rng.Normal();
  }
  const Dataset data(std::move(x), Vector(2000, 5.0), Task::kRegression);
  LinearRegressionSpec spec(1e-2);
  const Coordinator coordinator(TinyConfig());
  const auto result = coordinator.Train(spec, data, {0.05, 0.05});
  EXPECT_TRUE(result.ok());
}

TEST(Robustness, EpsilonAboveOneIsTriviallySatisfied) {
  const Dataset data = MakeSyntheticLogistic(5000, 4, 8);
  LogisticRegressionSpec spec(1e-3);
  const Coordinator coordinator(TinyConfig());
  const auto result = coordinator.Train(spec, data, {1.5, 0.05});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->used_initial_only);
  EXPECT_EQ(result->sample_size, 500);
}

TEST(Robustness, DeltaNearOneIsPermissive) {
  // delta = 0.99: almost no confidence required; the conservative
  // quantile level is low and the initial model should almost always do.
  const Dataset data = MakeSyntheticLogistic(8000, 4, 9);
  LogisticRegressionSpec spec(1e-3);
  const Coordinator coordinator(TinyConfig());
  const auto result = coordinator.Train(spec, data, {0.2, 0.99});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->used_initial_only);
}

TEST(Robustness, NonConvergedTrainingIsReportedNotHidden) {
  const Dataset data = MakeSyntheticLogistic(2000, 10, 10);
  LogisticRegressionSpec spec(1e-4);
  TrainerOptions options;
  options.optimizer.max_iterations = 1;
  options.optimizer.gradient_tolerance = 1e-14;
  options.optimizer.value_tolerance = 0.0;
  const auto model = ModelTrainer(options).Train(spec, data);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->converged);
}

TEST(Robustness, HoldoutCappedForSmallDatasets) {
  // A dataset barely above the minimum: holdout must shrink to fit.
  const Dataset data = MakeSyntheticLogistic(60, 3, 11);
  LogisticRegressionSpec spec(1e-2);
  BlinkConfig config = TinyConfig();
  config.holdout_size = 1000;  // bigger than the data; must be capped
  const Coordinator coordinator(config);
  const auto result = coordinator.Train(spec, data, {0.5, 0.2});
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->holdout->num_rows(), 12);  // 20% cap
  EXPECT_GE(result->holdout->num_rows(), 1);
}

TEST(Robustness, ZeroRegularizationPathWorks) {
  // beta = 0 exercises the J = H branch and the unregularized sampler
  // weights 1/sqrt(lambda).
  const Dataset data = MakeSyntheticLogistic(20000, 5, 12, /*sparsity=*/1.0,
                                             /*noise=*/0.2);
  LogisticRegressionSpec spec(0.0);
  const Coordinator coordinator(TinyConfig());
  const auto result = coordinator.Train(spec, data, {0.10, 0.1});
  ASSERT_TRUE(result.ok());
  const auto full = ModelTrainer().Train(spec, data);
  ASSERT_TRUE(full.ok());
  EXPECT_LE(spec.Diff(result->model.theta, full->theta, *result->holdout),
            0.10 + 0.05);
}

TEST(Robustness, SingleFeatureModel) {
  // d = 1: the smallest possible model end to end.
  Matrix x(10000, 1);
  Vector y(10000);
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    x(i, 0) = rng.Normal();
    y[i] = rng.Bernoulli(LogisticRegressionSpec::Sigmoid(2.0 * x(i, 0)))
               ? 1.0
               : 0.0;
  }
  const Dataset data(std::move(x), std::move(y), Task::kBinary);
  LogisticRegressionSpec spec(1e-3);
  const Coordinator coordinator(TinyConfig());
  const auto result = coordinator.Train(spec, data, {0.05, 0.05});
  EXPECT_TRUE(result.ok());
}

TEST(Robustness, StatisticsOnSingleRowSample) {
  // One row cannot define a covariance; must fail cleanly, not crash.
  const Dataset data = MakeSyntheticLogistic(300, 4, 14);
  LogisticRegressionSpec spec(1e-3);
  const auto model = ModelTrainer().Train(spec, data);
  ASSERT_TRUE(model.ok());
  const Dataset one = data.TakeRows({0});
  StatsOptions options;
  Rng rng(15);
  const auto stats =
      ComputeStatistics(spec, model->theta, one, options, &rng);
  // A rank-1 sampler or a clean error are both acceptable.
  if (!stats.ok()) {
    EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace blinkml
