// Serving-layer benchmark: 3 tenants, each running an 8-candidate sparse
// hyperparameter search over its own dataset, served by one SessionManager
// (concurrent jobs, shared prefixes, shared feature Grams, batched
// candidate scoring) against the sequential standalone baseline — a fresh
// Coordinator::Train per candidate per tenant, nothing amortized.
//
//   $ ./build/bench_serve [--json[=path]] [--threads=N]
//
// Honors BLINKML_SCALE (dataset sizes) and BLINKML_NUM_THREADS. With
// --json the summary is written to BENCH_serve.json. Exit status reflects
// the correctness checks (per-job results bitwise identical to the
// standalone runs, and to themselves across thread counts and repeat
// runs), not the speedup number.

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/coordinator.h"
#include "data/generators.h"
#include "linalg/matrix.h"
#include "models/logistic_regression.h"
#include "runtime/thread_pool.h"
#include "serve/session_manager.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace blinkml;

constexpr int kTenants = 3;
constexpr int kCandidates = 8;

BlinkConfig MakeConfig() {
  BlinkConfig config;
  config.initial_sample_size = 8000;
  config.holdout_size = 2000;
  // A slightly larger statistics sample than bench_sparse_stats: the
  // merge Gram (the shared artifact) scales with n_s^2 while the
  // per-candidate rescale stays O(n_s^2) cheap, so the amortized fraction
  // — and the serving layer's leverage — grows with n_s.
  config.stats_sample_size = 320;
  config.accuracy_samples = 160;
  config.size_samples = 128;
  config.seed = 11;
  return config;
}

// The regime the serving layer amortizes (paper Section 5.3's common
// case): the initial model meets the loose contract, so every candidate's
// statistics run on the shared D_0 and the feature Gram is shared 8-way
// per tenant. See bench_sparse_stats for why 0.08 keeps outcomes far from
// the contract's decision boundary.
constexpr ApproximationContract kContract{0.08, 0.05};

struct ServeRun {
  std::vector<SearchOutcome> outcomes;  // one per tenant
  double seconds = 0.0;
};

ServeRun RunServe(const std::vector<std::string>& names,
                  const std::vector<std::shared_ptr<const Dataset>>& datasets,
                  const BlinkConfig& config,
                  const std::vector<Candidate>& candidates,
                  const SpecFactory& factory) {
  ServeOptions serve_options;
  serve_options.max_concurrent_jobs = kTenants;
  SessionManager manager(serve_options);
  for (int t = 0; t < kTenants; ++t) {
    const auto shared = datasets[static_cast<std::size_t>(t)];
    const Status st = manager.RegisterDataset(
        names[static_cast<std::size_t>(t)], [shared] { return Dataset(*shared); },
        config);
    if (!st.ok()) {
      std::fprintf(stderr, "register failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  SearchOptions options;
  options.contract = kContract;

  ServeRun run;
  WallTimer timer;
  std::vector<std::future<Result<SearchOutcome>>> futures;
  for (int t = 0; t < kTenants; ++t) {
    SearchRequest request;
    request.dataset = names[static_cast<std::size_t>(t)];
    request.factory = factory;
    request.candidates = candidates;
    request.options = options;
    futures.push_back(std::async(
        std::launch::async,
        [&manager, request = std::move(request)] {
          return manager.Search(request);
        }));
  }
  for (auto& future : futures) {
    auto outcome = future.get();
    if (!outcome.ok()) {
      std::fprintf(stderr, "search job failed: %s\n",
                   outcome.status().ToString().c_str());
      std::exit(1);
    }
    run.outcomes.push_back(std::move(*outcome));
  }
  run.seconds = timer.Seconds();
  return run;
}

bool OutcomesBitwiseEqual(const ServeRun& a, const ServeRun& b) {
  for (int t = 0; t < kTenants; ++t) {
    const auto& ca = a.outcomes[static_cast<std::size_t>(t)].candidates;
    const auto& cb = b.outcomes[static_cast<std::size_t>(t)].candidates;
    for (std::size_t i = 0; i < ca.size(); ++i) {
      if (!ca[i].status.ok() || !cb[i].status.ok()) return false;
      if (MaxAbsDiff(ca[i].result.model.theta, cb[i].result.model.theta) !=
              0.0 ||
          ca[i].result.final_epsilon != cb[i].result.final_epsilon ||
          ca[i].score != cb[i].score) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace blinkml::bench;

  const BenchFlags flags = ParseBenchFlags(argc, argv, "BENCH_serve.json");
  const double scale = ScaleFromEnv();
  const auto rows = static_cast<Dataset::Index>(12'000 * scale);
  const Dataset::Index dim = 12'000;
  BlinkConfig config = MakeConfig();
  config.runtime.num_threads = flags.threads;

  // One stats-heavy sparse dataset per tenant (~600 nonzeros per row: the
  // pairwise-merge Gram dominates each candidate's statistics phase).
  std::vector<std::string> names;
  std::vector<std::shared_ptr<const Dataset>> datasets;
  for (int t = 0; t < kTenants; ++t) {
    names.push_back(StrFormat("tenant%d", t));
    datasets.push_back(std::make_shared<const Dataset>(MakeSyntheticLogistic(
        rows, dim, /*seed=*/29 + 2 * static_cast<std::uint64_t>(t),
        /*sparsity=*/0.05, /*noise=*/0.1)));
  }

  const std::vector<Candidate> candidates =
      HyperparamSearch::LogGrid(1e-4, 1e-1, kCandidates);
  const auto factory = [](const Candidate& c) {
    return std::make_shared<LogisticRegressionSpec>(c.l2);
  };

  PrintHeader("Serving layer: SessionManager vs sequential standalone runs");
  std::printf(
      "tenants=%d candidates=%d rows=%s dim=%s nnz/row=%s n_s=%d threads=%d\n",
      kTenants, kCandidates, WithThousands(rows).c_str(),
      WithThousands(dim).c_str(),
      WithThousands(datasets[0]->sparse().nnz() / rows).c_str(),
      static_cast<int>(config.stats_sample_size),
      ThreadPool::DefaultParallelism());

  // --- Baseline: sequential standalone runs, tenant by tenant, candidate
  // by candidate; every run recomputes its prefix, statistics, and holdout
  // scoring from scratch.
  std::vector<std::vector<ApproxResult>> naive(kTenants);
  WallTimer naive_timer;
  for (int t = 0; t < kTenants; ++t) {
    for (const Candidate& c : candidates) {
      const auto spec = factory(c);
      auto result =
          Coordinator(config).Train(*spec, *datasets[static_cast<std::size_t>(
                                                t)],
                                    kContract);
      if (!result.ok()) {
        std::fprintf(stderr, "naive run failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      naive[static_cast<std::size_t>(t)].push_back(std::move(*result));
    }
  }
  const double naive_seconds = naive_timer.Seconds();

  // --- Served: one SessionManager, three concurrent search jobs.
  const ServeRun served =
      RunServe(names, datasets, config, candidates, factory);
  // Run-to-run determinism.
  const ServeRun served_again =
      RunServe(names, datasets, config, candidates, factory);

  bool bitwise_vs_naive = true;
  double max_theta_diff = 0.0;
  for (int t = 0; t < kTenants; ++t) {
    const auto& outcome = served.outcomes[static_cast<std::size_t>(t)];
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const CandidateResult& cr = outcome.candidates[i];
      if (!cr.status.ok()) {
        std::fprintf(stderr, "served candidate failed: %s\n",
                     cr.status.ToString().c_str());
        return 1;
      }
      const ApproxResult& nr = naive[static_cast<std::size_t>(t)][i];
      const double dtheta = MaxAbsDiff(cr.result.model.theta, nr.model.theta);
      max_theta_diff = std::max(max_theta_diff, dtheta);
      bitwise_vs_naive = bitwise_vs_naive && dtheta == 0.0 &&
                         cr.result.final_epsilon == nr.final_epsilon &&
                         cr.result.sample_size == nr.sample_size;
    }
  }
  bool deterministic = OutcomesBitwiseEqual(served, served_again);

  // --- Thread-count invariance of the served results.
  ThreadPool pool(2);
  for (const int threads : {1, 2}) {
    BlinkConfig threaded = config;
    threaded.runtime.pool = &pool;
    threaded.runtime.num_threads = threads;
    const ServeRun run =
        RunServe(names, datasets, threaded, candidates, factory);
    deterministic = deterministic && OutcomesBitwiseEqual(served, run);
  }

  // --- Job latency under a burst: kTenants x kCandidates single Train
  // jobs submitted at once against one manager, one caller thread each;
  // each job's latency runs from the (shared) submission instant to its
  // Train returning, so the tail percentiles expose queueing behind the
  // kTenants job slots.
  const int burst_jobs = kTenants * kCandidates;
  std::vector<double> latencies(static_cast<std::size_t>(burst_jobs), 0.0);
  double burst_seconds = 0.0;
  {
    ServeOptions serve_options;
    serve_options.max_concurrent_jobs = kTenants;
    SessionManager manager(serve_options);
    for (int t = 0; t < kTenants; ++t) {
      const auto shared = datasets[static_cast<std::size_t>(t)];
      (void)manager.RegisterDataset(names[static_cast<std::size_t>(t)],
                                    [shared] { return Dataset(*shared); },
                                    config);
    }
    WallTimer burst_timer;
    std::vector<std::thread> waiters;
    for (int j = 0; j < burst_jobs; ++j) {
      TrainRequest request;
      request.dataset = names[static_cast<std::size_t>(j % kTenants)];
      request.spec = factory(candidates[static_cast<std::size_t>(
          j % static_cast<int>(candidates.size()))]);
      request.contract = kContract;
      waiters.emplace_back(
          [&manager, request = std::move(request), &latencies, &burst_timer,
           j] {
            const auto result = manager.Train(request);
            if (!result.ok()) {
              std::fprintf(stderr, "burst job failed: %s\n",
                           result.status().ToString().c_str());
              std::exit(1);
            }
            latencies[static_cast<std::size_t>(j)] = burst_timer.Seconds();
          });
    }
    for (auto& waiter : waiters) waiter.join();
    burst_seconds = burst_timer.Seconds();
  }
  const double p50_ms = Percentile(latencies, 50.0) * 1e3;
  const double p95_ms = Percentile(latencies, 95.0) * 1e3;
  const double p99_ms = Percentile(latencies, 99.0) * 1e3;

  const double speedup = naive_seconds / served.seconds;
  std::uint64_t gram_hits = 0, gram_misses = 0;
  int batched_groups = 0;
  for (const auto& outcome : served.outcomes) {
    gram_hits += outcome.session_stats.gram_cache.hits;
    gram_misses += outcome.session_stats.gram_cache.misses;
    batched_groups += outcome.batched_score_groups;
  }

  std::printf("\nnaive (sequential standalone): %s\n",
              HumanSeconds(naive_seconds).c_str());
  std::printf("served (SessionManager):       %s  ->  %.2fx\n",
              HumanSeconds(served.seconds).c_str(), speedup);
  std::printf("feature gram: %llu hits / %llu misses; batched score "
              "matrices: %d\n",
              static_cast<unsigned long long>(gram_hits),
              static_cast<unsigned long long>(gram_misses), batched_groups);
  std::printf("served vs naive:   %s (max |dtheta| %.2e)\n",
              bitwise_vs_naive ? "bitwise identical" : "MISMATCH",
              max_theta_diff);
  std::printf("determinism:       %s (repeat run + 1/2 threads)\n",
              deterministic ? "bitwise identical" : "MISMATCH");
  std::printf("burst of %d train jobs: %s total; job latency p50 %.0f ms, "
              "p95 %.0f ms, p99 %.0f ms\n",
              burst_jobs, HumanSeconds(burst_seconds).c_str(), p50_ms,
              p95_ms, p99_ms);

  if (flags.json) {
    const std::string& json_path = flags.json_path;
    JsonObject root;
    root.Str("bench", "serve")
        .Int("tenants", kTenants)
        .Int("candidates", kCandidates)
        .Int("rows", rows)
        .Int("dim", dim)
        .Int("threads", ThreadPool::DefaultParallelism())
        .Number("scale", scale)
        .Number("naive_seconds", naive_seconds)
        .Number("served_seconds", served.seconds)
        .Number("speedup", speedup)
        .Int("gram_cache_hits", static_cast<long long>(gram_hits))
        .Int("gram_cache_misses", static_cast<long long>(gram_misses))
        .Int("batched_score_matrices", batched_groups)
        .Int("burst_jobs", burst_jobs)
        .Number("burst_seconds", burst_seconds)
        .Number("job_latency_p50_ms", p50_ms)
        .Number("job_latency_p95_ms", p95_ms)
        .Number("job_latency_p99_ms", p99_ms)
        .Number("max_theta_diff", max_theta_diff)
        .Bool("bitwise_vs_naive", bitwise_vs_naive)
        .Bool("bitwise_deterministic", deterministic);
    if (!WriteBenchFile(json_path, root.ToString())) return 1;
  }
  return (bitwise_vs_naive && deterministic) ? 0 : 1;
}
