// Cross-module integration tests: the full BlinkML pipeline on each of the
// paper's workload shapes, including the sparse high-dimensional path and
// the file-loader path.

#include <filesystem>

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "core/conservative.h"
#include "core/coordinator.h"
#include "data/generators.h"
#include "data/loader.h"
#include "models/linear_regression.h"
#include "models/logistic_regression.h"
#include "models/max_entropy.h"
#include "models/ppca.h"
#include "tests/test_util.h"

namespace blinkml {
namespace {

BlinkConfig FastConfig(std::uint64_t seed = 7) {
  BlinkConfig config;
  config.initial_sample_size = 1500;
  config.holdout_size = 1000;
  config.accuracy_samples = 256;
  config.size_samples = 128;
  config.seed = seed;
  return config;
}

TEST(Integration, SparseHighDimensionalLogisticRegression) {
  // Criteo-like: sparse features, d larger than the statistics sample, so
  // the lazy Gram-factor path is exercised end to end.
  const Dataset data =
      MakeCriteoLike(30000, 1, /*dim=*/3000, /*nnz_per_row=*/25);
  LogisticRegressionSpec spec(1e-3);
  BlinkConfig config = FastConfig();
  config.stats_sample_size = 512;
  const Coordinator coordinator(config);
  const auto result = coordinator.Train(spec, data, {0.03, 0.05});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->sample_size, 0);
  // Verify against the actually trained full model.
  const auto full = ModelTrainer().Train(spec, data);
  ASSERT_TRUE(full.ok());
  const double v =
      spec.Diff(result->model.theta, full->theta, *result->holdout);
  EXPECT_LE(v, 0.03 + 0.02);
}

TEST(Integration, SparseMulticlassYelpLike) {
  // n_0 must stay comfortably above the parameter count (p = 5 * 300 here)
  // for the MLE asymptotics to hold — when n_0 <~ p the initial model
  // overfits and per-example gradients at theta_0 underestimate J.
  const Dataset data = MakeYelpLike(15000, 2, /*dim=*/300);
  MaxEntropySpec spec(1e-3);
  BlinkConfig config = FastConfig();
  config.initial_sample_size = 3000;
  const Coordinator coordinator(config);
  const auto result = coordinator.Train(spec, data, {0.15, 0.05});
  ASSERT_TRUE(result.ok());
  const auto full = ModelTrainer().Train(spec, data);
  ASSERT_TRUE(full.ok());
  EXPECT_LE(spec.Diff(result->model.theta, full->theta, *result->holdout),
            0.15 + 0.03);
}

TEST(Integration, RegressionOnPowerLikeData) {
  const Dataset data = MakePowerLike(25000, 3, /*dim=*/30);
  LinearRegressionSpec spec(1e-3);
  const Coordinator coordinator(FastConfig());
  const auto result = coordinator.Train(spec, data, {0.05, 0.05});
  ASSERT_TRUE(result.ok());
  const auto full = ModelTrainer().Train(spec, data);
  ASSERT_TRUE(full.ok());
  EXPECT_LE(spec.Diff(result->model.theta, full->theta, *result->holdout),
            0.05 + 0.02);
}

TEST(Integration, PpcaOnMnistLikeData) {
  const Dataset data = MakeMnistLike(20000, 4, /*dim=*/64, /*num_classes=*/10);
  // Drop labels: PPCA treats features only.
  const Dataset unlabeled(Matrix(data.dense()), Vector(),
                          Task::kUnsupervised);
  PpcaSpec spec(5);
  // PPCA's cosine metric is quadratically sensitive near zero; give the
  // initial model a comfortable asymptotic margin (n_0 >> p = 321).
  BlinkConfig config = FastConfig();
  config.initial_sample_size = 4000;
  const Coordinator coordinator(config);
  const auto result = coordinator.Train(spec, unlabeled, {0.02, 0.05});
  ASSERT_TRUE(result.ok());
  const auto full = ModelTrainer().Train(spec, unlabeled);
  ASSERT_TRUE(full.ok());
  EXPECT_LE(spec.Diff(result->model.theta, full->theta, *result->holdout),
            0.02 + 0.01);
}

TEST(Integration, Lemma1GeneralizationTransfer) {
  // gen(m_N) <= gen(m_n) + eps - gen(m_n) * eps must hold for the actually
  // trained pair.
  const Dataset data = MakeHiggsLike(30000, 5, /*dim=*/15);
  LogisticRegressionSpec spec(1e-3);
  const double eps = 0.05;
  const Coordinator coordinator(FastConfig());
  const auto result = coordinator.Train(spec, data, {eps, 0.05});
  ASSERT_TRUE(result.ok());
  const auto full = ModelTrainer().Train(spec, data);
  ASSERT_TRUE(full.ok());
  const double gen_approx =
      spec.GeneralizationError(result->model.theta, *result->holdout);
  const double gen_full =
      spec.GeneralizationError(full->theta, *result->holdout);
  EXPECT_LE(gen_full, FullModelGeneralizationBound(gen_approx, eps) + 0.02);
}

TEST(Integration, CsvPipelineEndToEnd) {
  // Generate -> save CSV -> load -> train with a contract.
  const auto dir = std::filesystem::temp_directory_path() /
                   "blinkml_integration_csv";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "train.csv").string();
  const Dataset original = MakeSyntheticLogistic(8000, 6, 6);
  ASSERT_TRUE(SaveCsv(original, path).ok());
  const auto loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->task(), Task::kBinary);
  LogisticRegressionSpec spec(1e-3);
  const Coordinator coordinator(FastConfig());
  const auto result = coordinator.Train(spec, *loaded, {0.2, 0.05});
  EXPECT_TRUE(result.ok());
  std::filesystem::remove_all(dir);
}

TEST(Integration, BlinkMlBeatsIncEstimatorOnModelCount) {
  // BlinkML trains at most 2 models; IncEstimator may train several for a
  // tight contract on the same data.
  const Dataset data = MakeSyntheticLogistic(25000, 8, 7, /*sparsity=*/1.0,
                                             /*noise=*/0.25);
  LogisticRegressionSpec spec(1e-3);
  const BlinkConfig config = FastConfig();
  const Coordinator coordinator(config);
  const ApproximationContract contract{0.02, 0.1};
  const auto blink = coordinator.Train(spec, data, contract);
  ASSERT_TRUE(blink.ok());
  const IncEstimatorBaseline inc(config);
  const auto inc_result = inc.Train(spec, data, contract);
  ASSERT_TRUE(inc_result.ok());
  EXPECT_GE(inc_result->models_trained, 2);
}

TEST(Integration, StatsMethodsInterchangeableInCoordinator) {
  const Dataset data = MakeHiggsLike(20000, 8, /*dim=*/12);
  LogisticRegressionSpec spec(1e-3);
  for (const StatsMethod method :
       {StatsMethod::kClosedForm, StatsMethod::kInverseGradients,
        StatsMethod::kObservedFisher}) {
    BlinkConfig config = FastConfig();
    config.stats_method = method;
    const Coordinator coordinator(config);
    const auto result = coordinator.Train(spec, data, {0.05, 0.05});
    ASSERT_TRUE(result.ok()) << StatsMethodName(method);
    EXPECT_GT(result->sample_size, 0) << StatsMethodName(method);
  }
}

}  // namespace
}  // namespace blinkml
