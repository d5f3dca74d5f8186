// Multi-tenant serving with the SessionManager (the sharding/serving
// layer on top of the session subsystem).
//
//   $ ./build/example_multi_tenant_serving
//
// One process serves three tenants over three datasets: a click-through
// model sweep (sparse logistic), a sensor-regression training (dense
// linear), and an ad-hoc training on the click data under a different
// seed. Each tenant's job runs on its own thread, datasets load lazily
// and exactly once, sessions share prefixes (holdout + D_0) and
// feature Grams per (dataset, seed), each run's final sample lives only as
// long as the run, and a byte budget bounds what stays resident. Every
// job's result is bitwise identical to a standalone Coordinator::Train
// with the same config and seed.

#include <cstdio>
#include <future>
#include <memory>
#include <vector>

#include "data/generators.h"
#include "models/linear_regression.h"
#include "models/logistic_regression.h"
#include "serve/session_manager.h"
#include "util/string_util.h"
#include "util/timer.h"

int main() {
  using namespace blinkml;

  BlinkConfig config;
  config.initial_sample_size = 4000;
  config.holdout_size = 1500;
  config.accuracy_samples = 256;
  config.size_samples = 128;
  config.seed = 11;

  ServeOptions serve_options;
  serve_options.max_concurrent_jobs = 3;
  serve_options.max_resident_bytes = 512ull << 20;
  SessionManager manager(serve_options);

  // Datasets load lazily: nothing is generated until the first job needs
  // it, and concurrent first requests load exactly once.
  Status st = manager.RegisterDataset(
      "clicks",
      [] {
        return MakeCriteoLike(40'000, /*seed=*/3, /*dim=*/2000,
                              /*nnz_per_row=*/30);
      },
      config);
  if (st.ok()) {
    st = manager.RegisterDataset(
        "sensors", [] { return MakeGasLike(60'000, /*seed=*/5); }, config);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "register failed: %s\n", st.ToString().c_str());
    return 1;
  }

  const ApproximationContract contract{0.05, 0.05};
  WallTimer timer;

  // Tenant 1: an L2 sweep over the click data (one search job).
  SearchRequest sweep;
  sweep.dataset = "clicks";
  sweep.factory = [](const Candidate& c) {
    return std::make_shared<LogisticRegressionSpec>(c.l2);
  };
  sweep.candidates = HyperparamSearch::LogGrid(3e-5, 1e-1, 6);
  sweep.options.contract = contract;
  auto sweep_future =
      std::async(std::launch::async, [&] { return manager.Search(sweep); });

  // Tenant 2: a contract-bound regression on the sensor data.
  auto sensor_future = std::async(std::launch::async, [&] {
    return manager.Train(
        {"sensors", std::make_shared<LinearRegressionSpec>(1e-3), contract});
  });

  // Tenant 3: an ad-hoc model on the click data under its own seed (its
  // own session; the loaded dataset is shared, not re-generated).
  auto adhoc_future = std::async(std::launch::async, [&] {
    return manager.Train({"clicks",
                          std::make_shared<LogisticRegressionSpec>(1e-2),
                          contract, /*seed=*/99});
  });

  const auto sweep_outcome = sweep_future.get();
  if (!sweep_outcome.ok() || sweep_outcome->best_index < 0) {
    std::fprintf(stderr, "sweep failed\n");
    return 1;
  }
  const CandidateResult& best =
      sweep_outcome
          ->candidates[static_cast<std::size_t>(sweep_outcome->best_index)];
  std::printf("clicks sweep:   best l2=%g, holdout accuracy %.2f%% "
              "(%zu candidates, %d batched score matrix)\n",
              best.candidate.l2, 100.0 * best.score,
              sweep_outcome->candidates.size(),
              sweep_outcome->batched_score_groups);

  const auto sensor_result = sensor_future.get();
  if (!sensor_result.ok()) {
    std::fprintf(stderr, "sensor training failed: %s\n",
                 sensor_result.status().ToString().c_str());
    return 1;
  }
  std::printf("sensors train:  %s of %s rows, bound %.4f\n",
              WithThousands(sensor_result->sample_size).c_str(),
              WithThousands(sensor_result->full_size).c_str(),
              sensor_result->final_epsilon);

  const auto adhoc_result = adhoc_future.get();
  if (!adhoc_result.ok()) {
    std::fprintf(stderr, "ad-hoc training failed: %s\n",
                 adhoc_result.status().ToString().c_str());
    return 1;
  }
  std::printf("clicks ad-hoc:  seed 99, %s rows, bound %.4f\n",
              WithThousands(adhoc_result->sample_size).c_str(),
              adhoc_result->final_epsilon);

  const ServeStats stats = manager.stats();
  std::printf("\nserved %llu jobs in %s: %d sessions over %d datasets, "
              "%s resident\n",
              static_cast<unsigned long long>(stats.jobs_completed),
              HumanSeconds(timer.Seconds()).c_str(), stats.live_sessions,
              stats.loaded_datasets,
              WithThousands(static_cast<long long>(stats.resident_bytes))
                  .c_str());
  return stats.jobs_failed == 0 ? 0 : 1;
}
