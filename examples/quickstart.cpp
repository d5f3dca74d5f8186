// Quickstart: train an approximate logistic-regression model with a
// 95%-accuracy contract and compare it against the full model.
//
//   $ ./build/examples/quickstart
//
// This walks the exact workflow of the paper's Figure 1: instead of
// training on all N rows, BlinkML trains on an automatically chosen
// sample and guarantees — with 95% probability — that the approximate
// model predicts the same labels as the full model on at least 95% of
// inputs.

#include <cstdio>

#include "core/coordinator.h"
#include "data/generators.h"
#include "models/logistic_regression.h"
#include "models/trainer.h"
#include "util/string_util.h"
#include "util/timer.h"

int main() {
  using namespace blinkml;

  // A HIGGS-like binary classification task: 400K rows, 28 features.
  const std::int64_t n = 400'000;
  std::printf("Generating %s rows of HIGGS-like data...\n",
              WithThousands(n).c_str());
  const Dataset data = MakeHiggsLike(n, /*seed=*/7);

  LogisticRegressionSpec spec(/*l2=*/1e-3);
  ApproximationContract contract;
  contract.epsilon = 0.05;  // request 95% agreement with the full model
  contract.delta = 0.05;    // with 95% confidence

  // --- BlinkML ---
  Coordinator coordinator;
  WallTimer blink_timer;
  Result<ApproxResult> result = coordinator.Train(spec, data, contract);
  if (!result.ok()) {
    std::fprintf(stderr, "BlinkML failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const double blink_seconds = blink_timer.Seconds();

  std::printf("\nBlinkML:\n");
  std::printf("  sample size used : %s of %s rows\n",
              WithThousands(result->sample_size).c_str(),
              WithThousands(result->full_size).c_str());
  std::printf("  initial eps bound: %.4f\n", result->initial_epsilon);
  std::printf("  final eps bound  : %.4f (requested %.4f)\n",
              result->final_epsilon, contract.epsilon);
  std::printf("  initial-only     : %s\n",
              result->used_initial_only ? "yes" : "no");
  std::printf("  time             : %s\n", HumanSeconds(blink_seconds).c_str());

  // --- Full model (what a traditional ML library would do) ---
  std::printf("\nTraining the full model for comparison...\n");
  // Train on the pool BlinkML's guarantee refers to: the data less the
  // holdout.
  Result<TrainedModel> full = coordinator.TrainFullModel(spec, data);
  if (!full.ok()) {
    std::fprintf(stderr, "full training failed: %s\n",
                 full.status().ToString().c_str());
    return 1;
  }
  const double full_seconds = full->train_seconds;

  const double v =
      spec.Diff(result->model.theta, full->theta, *result->holdout);
  std::printf("\nComparison:\n");
  std::printf("  full-model time    : %s\n",
              HumanSeconds(full_seconds).c_str());
  std::printf("  speedup            : %.1fx\n", full_seconds / blink_seconds);
  std::printf("  actual v(mn, mN)   : %.4f (bound was %.4f)\n", v,
              contract.epsilon);
  std::printf("  actual agreement   : %.2f%%\n", 100.0 * (1.0 - v));
  std::printf("  gen. error approx  : %.4f\n",
              spec.GeneralizationError(result->model.theta, *result->holdout));
  std::printf("  gen. error full    : %.4f\n",
              spec.GeneralizationError(full->theta, *result->holdout));
  return v <= contract.epsilon ? 0 : 2;
}
