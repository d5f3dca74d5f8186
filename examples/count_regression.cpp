// Poisson regression with an accuracy contract — the fourth GLM family the
// paper lists (Section 1), on synthetic event-count data.
//
//   $ ./build/examples/count_regression
//
// The contract for regression-type models bounds the normalized RMS
// difference between the approximate and full models' predicted rates
// (paper Appendix C); model persistence (save/load) is demonstrated at
// the end.

#include <cstdio>
#include <filesystem>

#include "core/coordinator.h"
#include "data/generators.h"
#include "models/poisson_regression.h"
#include "models/serialization.h"
#include "util/string_util.h"
#include "util/timer.h"

int main() {
  using namespace blinkml;

  // Event counts with an intercept column so the base rate is learnable.
  const std::int64_t n = 500'000;
  const Dataset raw = MakeSyntheticCounts(n, /*dim=*/16, /*seed=*/31,
                                          /*rate_scale=*/2.5);
  Matrix x(raw.num_rows(), 17);
  for (Dataset::Index i = 0; i < raw.num_rows(); ++i) {
    for (int j = 0; j < 16; ++j) x(i, j) = raw.dense()(i, j);
    x(i, 16) = 1.0;
  }
  const Dataset data(std::move(x), Vector(raw.labels()), Task::kRegression);
  std::printf("Poisson regression on %s rows of count data\n",
              WithThousands(n).c_str());

  PoissonRegressionSpec spec(1e-3);
  ApproximationContract contract{0.02, 0.05};  // 98% rate agreement

  Coordinator coordinator;
  WallTimer blink_timer;
  const auto result = coordinator.Train(spec, data, contract);
  if (!result.ok()) {
    std::fprintf(stderr, "BlinkML failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("BlinkML: %s of %s rows in %s (bound %.4f)\n",
              WithThousands(result->sample_size).c_str(),
              WithThousands(result->full_size).c_str(),
              HumanSeconds(blink_timer.Seconds()).c_str(),
              result->final_epsilon);

  // m_N on the pool the guarantee refers to (the data less the holdout).
  const auto full = coordinator.TrainFullModel(spec, data);
  if (!full.ok()) {
    std::fprintf(stderr, "full training failed\n");
    return 1;
  }
  const double v =
      spec.Diff(result->model.theta, full->theta, *result->holdout);
  std::printf("Full model in %s; actual rate difference v = %.4f "
              "(requested <= %.4f)\n",
              HumanSeconds(full->train_seconds).c_str(), v,
              contract.epsilon);

  // Persist the approximate model with its contract, reload, verify.
  const std::string path =
      (std::filesystem::temp_directory_path() / "count_model.blink").string();
  const Status saved = SaveModel(path, spec.name(), result->model,
                                 contract.epsilon, contract.delta);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  const auto loaded = LoadModel(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("Model round-tripped through %s (class %s, eps %.3f): "
              "identical predictions: %s\n",
              path.c_str(), loaded->model_class.c_str(), loaded->epsilon,
              spec.Diff(loaded->model.theta, result->model.theta,
                        *result->holdout) == 0.0
                  ? "yes"
                  : "NO");
  return v <= contract.epsilon ? 0 : 2;
}
