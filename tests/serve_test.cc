// SessionManager: concurrent multi-tenant jobs must be bitwise identical
// to standalone runs at any thread count; the byte-budget LRU must evict
// idle sessions but never in-use ones (refcount); callers beyond
// max_concurrent_jobs wait for a slot; job exceptions must propagate to
// the caller.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "data/generators.h"
#include "models/linear_regression.h"
#include "models/logistic_regression.h"
#include "runtime/thread_pool.h"
#include "serve/session_manager.h"
#include "session/training_session.h"
#include "tests/test_util.h"

namespace blinkml {
namespace {

using testing::ExpectBitwiseEqual;
using testing::FastConfig;
using testing::kTightContract;

std::shared_ptr<LogisticRegressionSpec> Lr(double l2) {
  return std::make_shared<LogisticRegressionSpec>(l2);
}

// The three tenants' datasets: dense binary, sparse binary (Gram-path
// statistics), dense regression.
Dataset DenseData() { return testing::SmallDenseLogistic(20000, 6, 3); }
Dataset SparseData() {
  return testing::SparseBinaryData(20000, /*dim=*/400, /*seed=*/13,
                                   /*nnz_per_row=*/12);
}
Dataset LinearData() { return MakeSyntheticLinear(20000, 5, 21); }

TEST(SessionManager, ConcurrentTenantsMatchStandaloneAtAnyThreadCount) {
  const Dataset dense = DenseData();
  const Dataset sparse = SparseData();
  const Dataset linear = LinearData();
  const std::vector<Candidate> candidates =
      HyperparamSearch::LogGrid(1e-4, 1e-1, 3);
  const auto lr_factory = [](const Candidate& c) { return Lr(c.l2); };

  // Standalone references, fully serial.
  BlinkConfig serial = FastConfig(11);
  serial.runtime.num_threads = 1;
  std::vector<ApproxResult> search_ref;
  for (const Candidate& c : candidates) {
    const auto r =
        Coordinator(serial).Train(*Lr(c.l2), dense, kTightContract);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    search_ref.push_back(*r);
  }
  const auto sparse_ref =
      Coordinator(serial).Train(*Lr(1e-3), sparse, kTightContract);
  const LinearRegressionSpec lin_spec(1e-3);
  const auto linear_ref =
      Coordinator(serial).Train(lin_spec, linear, kTightContract);
  BlinkConfig serial99 = FastConfig(99);
  serial99.runtime.num_threads = 1;
  const auto sparse_ref99 =
      Coordinator(serial99).Train(*Lr(1e-2), sparse, kTightContract);
  ASSERT_TRUE(sparse_ref.ok());
  ASSERT_TRUE(linear_ref.ok());
  ASSERT_TRUE(sparse_ref99.ok());

  ThreadPool pool(8);
  for (const int threads : {1, 2, 8}) {
    BlinkConfig config = FastConfig(11);
    config.runtime.pool = &pool;
    config.runtime.num_threads = threads;

    ServeOptions options;
    options.max_concurrent_jobs = 4;
    SessionManager manager(options);
    ASSERT_TRUE(manager.RegisterDataset("dense", Dataset(dense), config).ok());
    // Lazily generated tenant: the factory runs inside the first job.
    ASSERT_TRUE(manager
                    .RegisterDataset("sparse",
                                     [&sparse] { return Dataset(sparse); },
                                     config)
                    .ok());
    ASSERT_TRUE(
        manager.RegisterDataset("linear", Dataset(linear), config).ok());
    // The same name cannot be registered twice.
    EXPECT_FALSE(
        manager.RegisterDataset("dense", Dataset(dense), config).ok());

    // Mixed concurrent jobs, each on its own caller thread: one search +
    // three trains across the three datasets, two of the trains sharing
    // the "sparse" session and one using a per-request seed (its own
    // session).
    SearchOptions search_options;
    search_options.contract = kTightContract;
    SearchRequest search_request;
    search_request.dataset = "dense";
    search_request.factory = lr_factory;
    search_request.candidates = candidates;
    search_request.options = search_options;
    auto search_future = std::async(std::launch::async, [&] {
      return manager.Search(search_request);
    });
    auto sparse_future = std::async(std::launch::async, [&] {
      return manager.Train({"sparse", Lr(1e-3), kTightContract});
    });
    auto linear_future = std::async(std::launch::async, [&] {
      return manager.Train({"linear",
                            std::make_shared<LinearRegressionSpec>(1e-3),
                            kTightContract});
    });
    auto seeded_future = std::async(std::launch::async, [&] {
      return manager.Train({"sparse", Lr(1e-2), kTightContract, 99});
    });

    const auto search_outcome = search_future.get();
    ASSERT_TRUE(search_outcome.ok()) << search_outcome.status().ToString();
    ASSERT_EQ(search_outcome->candidates.size(), candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const CandidateResult& cr = search_outcome->candidates[i];
      ASSERT_TRUE(cr.status.ok()) << cr.status.ToString();
      ExpectBitwiseEqual(cr.result, search_ref[i], "served search");
    }
    const auto sparse_result = sparse_future.get();
    ASSERT_TRUE(sparse_result.ok()) << sparse_result.status().ToString();
    ExpectBitwiseEqual(*sparse_result, *sparse_ref, "served sparse train");
    const auto linear_result = linear_future.get();
    ASSERT_TRUE(linear_result.ok()) << linear_result.status().ToString();
    ExpectBitwiseEqual(*linear_result, *linear_ref, "served linear train");
    const auto seeded_result = seeded_future.get();
    ASSERT_TRUE(seeded_result.ok()) << seeded_result.status().ToString();
    ExpectBitwiseEqual(*seeded_result, *sparse_ref99, "served seeded train");

    const ServeStats stats = manager.stats();
    EXPECT_EQ(stats.jobs_submitted, 4u);
    EXPECT_EQ(stats.jobs_completed, 4u);
    EXPECT_EQ(stats.jobs_failed, 0u);
    // (dense, 11), (sparse, 11), (linear, 11), (sparse, 99).
    EXPECT_EQ(stats.sessions_created, 4u);
    EXPECT_EQ(stats.loaded_datasets, 3);
    // No budget: nothing was evicted.
    EXPECT_EQ(stats.sessions_evicted, 0u);
    EXPECT_EQ(stats.live_sessions, 4);
    EXPECT_GT(stats.resident_bytes, 0u);

    // Forced eviction drops the idle sessions and unloads the
    // factory-registered dataset, but pre-materialized registrations are
    // pinned resident (their bytes live in the registry's own closure, so
    // unloading them would free nothing).
    EXPECT_EQ(manager.EvictIdle(), 4);
    const ServeStats after = manager.stats();
    EXPECT_EQ(after.live_sessions, 0);
    EXPECT_EQ(after.loaded_datasets, 2);
  }
}

TEST(SessionManager, EvictionUnderPressureRecomputesIdenticalResults) {
  const Dataset dense = DenseData();
  const Dataset linear = LinearData();

  // Lazy factories: unloading a factory-registered dataset genuinely
  // frees it (pre-materialized registrations are pinned resident instead
  // — their bytes live in the registry's own closure).
  const auto dense_factory = [&dense] { return Dataset(dense); };
  const auto linear_factory = [&linear] { return Dataset(linear); };

  // Reference: an unlimited manager serving the same jobs.
  std::vector<ApproxResult> reference;
  {
    SessionManager unlimited(ServeOptions{});
    ASSERT_TRUE(
        unlimited.RegisterDataset("dense", dense_factory, FastConfig(11))
            .ok());
    ASSERT_TRUE(
        unlimited.RegisterDataset("linear", linear_factory, FastConfig(11))
            .ok());
    for (int round = 0; round < 2; ++round) {
      auto a = std::async(std::launch::async, [&] {
        return unlimited.Train({"dense", Lr(1e-3), kTightContract});
      });
      auto b = std::async(std::launch::async, [&] {
        return unlimited.Train({"linear",
                                std::make_shared<LinearRegressionSpec>(1e-3),
                                kTightContract});
      });
      const auto ra = a.get();
      const auto rb = b.get();
      ASSERT_TRUE(ra.ok());
      ASSERT_TRUE(rb.ok());
      reference.push_back(*ra);
      reference.push_back(*rb);
    }
    EXPECT_EQ(unlimited.stats().sessions_evicted, 0u);
  }

  // A 1-byte budget: every release finds the footprint over budget and
  // evicts the now-idle session and unloads its dataset; the next round
  // reloads and recomputes, bitwise identically (every cached artifact is
  // a pure function of its key).
  ServeOptions tight;
  tight.max_resident_bytes = 1;
  tight.max_concurrent_jobs = 1;  // serialize so each release sees idle
  SessionManager manager(tight);
  ASSERT_TRUE(
      manager.RegisterDataset("dense", dense_factory, FastConfig(11)).ok());
  ASSERT_TRUE(
      manager.RegisterDataset("linear", linear_factory, FastConfig(11)).ok());
  std::size_t next = 0;
  for (int round = 0; round < 2; ++round) {
    const auto ra = manager.Train({"dense", Lr(1e-3), kTightContract});
    ASSERT_TRUE(ra.ok());
    ExpectBitwiseEqual(*ra, reference[next++], "evicted dense");
    const auto rb = manager.Train(
        {"linear", std::make_shared<LinearRegressionSpec>(1e-3),
         kTightContract});
    ASSERT_TRUE(rb.ok());
    ExpectBitwiseEqual(*rb, reference[next++], "evicted linear");
  }

  const ServeStats stats = manager.stats();
  // Each of the four jobs created a fresh session and evicted it on
  // completion; each dataset was loaded once per use.
  EXPECT_EQ(stats.sessions_created, 4u);
  EXPECT_EQ(stats.sessions_evicted, 4u);
  EXPECT_GE(stats.datasets_loaded, 4u);
  EXPECT_GE(stats.datasets_unloaded, 4u);
  EXPECT_EQ(stats.live_sessions, 0);
  EXPECT_EQ(stats.loaded_datasets, 0);
  EXPECT_EQ(stats.resident_bytes, 0u);
}

// A session keeps the storage of its final samples between jobs, and the
// byte budget charges it like prefixes and Grams: the manager reports a
// standalone session's CacheBytes(), a budget that fits the prefix alone
// but not the kept storage evicts the idle session, and evicting it frees
// the storage.
TEST(SessionManager, ChargesAndEvictsKeptSampleStorage) {
  const Dataset dense = DenseData();
  TrainingSession reference(Dataset(dense), FastConfig(11));
  ASSERT_TRUE(reference.Train(*Lr(1e-3), kTightContract).ok());
  const SessionStats reference_stats = reference.stats();
  ASSERT_GT(reference_stats.sample_storage_bytes, 0u);
  const std::uint64_t prefix_bytes = reference_stats.cache.cached_bytes;

  ServeOptions roomy;
  roomy.max_resident_bytes = 1ull << 40;
  SessionManager manager(roomy);
  ASSERT_TRUE(manager.RegisterDataset("dense", Dataset(dense), FastConfig(11))
                  .ok());
  ASSERT_TRUE(manager.Train({"dense", Lr(1e-3), kTightContract}).ok());
  EXPECT_EQ(manager.stats().cached_bytes, reference.CacheBytes());
  EXPECT_EQ(manager.stats().live_sessions, 1);
  EXPECT_EQ(manager.EvictIdle(), 1);
  EXPECT_EQ(manager.stats().cached_bytes, 0u);

  // The registration is pinned resident, so only session bytes count
  // against this budget: the prefix fits, the prefix plus the kept
  // storage does not.
  ServeOptions tight;
  tight.max_resident_bytes = prefix_bytes + 1;
  SessionManager evicting(tight);
  ASSERT_TRUE(
      evicting.RegisterDataset("dense", Dataset(dense), FastConfig(11)).ok());
  const auto result = evicting.Train({"dense", Lr(1e-3), kTightContract});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(evicting.stats().sessions_evicted, 1u);
  EXPECT_EQ(evicting.stats().live_sessions, 0);
  EXPECT_EQ(evicting.stats().cached_bytes, 0u);
}

// A logistic spec whose initial training blocks until the test releases
// it — pins its session mid-job so the refcount protection is observable.
class GatedSpec final : public LogisticRegressionSpec {
 public:
  GatedSpec(double l2, std::atomic<bool>* started,
            std::shared_future<void> gate)
      : LogisticRegressionSpec(l2), started_(started),
        gate_(std::move(gate)) {}

  Vector InitialTheta(const Dataset& data) const override {
    started_->store(true);
    gate_.wait();
    return LogisticRegressionSpec::InitialTheta(data);
  }

 private:
  std::atomic<bool>* started_;
  std::shared_future<void> gate_;
};

TEST(SessionManager, InUseSessionsSurviveEvictionByRefcount) {
  const Dataset dense = DenseData();
  const Dataset linear = LinearData();

  ServeOptions options;
  options.max_resident_bytes = 1;  // everything idle is evictable
  options.max_concurrent_jobs = 2;
  SessionManager manager(options);
  ASSERT_TRUE(manager
                  .RegisterDataset("dense",
                                   [&dense] { return Dataset(dense); },
                                   FastConfig(11))
                  .ok());
  ASSERT_TRUE(manager
                  .RegisterDataset("linear",
                                   [&linear] { return Dataset(linear); },
                                   FastConfig(11))
                  .ok());

  std::atomic<bool> started{false};
  std::promise<void> gate;
  const std::shared_future<void> gate_future = gate.get_future().share();
  auto gated = std::make_shared<GatedSpec>(1e-3, &started, gate_future);
  auto blocked = std::async(std::launch::async, [&] {
    return manager.Train({"dense", gated, kTightContract});
  });
  // Wait until the job holds its session lease (it is blocked inside
  // initial training).
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // A completing job on another dataset triggers budget enforcement; the
  // in-use "dense" session must survive it, and so must its dataset.
  // (EXPECT, not ASSERT: returning before the gate opens would leave the
  // blocked job's future waiting on it.)
  EXPECT_TRUE(manager
                  .Train({"linear",
                          std::make_shared<LinearRegressionSpec>(1e-3),
                          kTightContract})
                  .ok());
  // Forced eviction cannot touch it either.
  EXPECT_EQ(manager.EvictIdle(), 0);
  {
    const ServeStats stats = manager.stats();
    EXPECT_EQ(stats.live_sessions, 1);
    EXPECT_EQ(stats.loaded_datasets, 1);
    // The idle "linear" session fell to the budget when its job released.
    EXPECT_EQ(stats.sessions_evicted, 1u);
  }

  // Release the gate: the pinned job completes normally and matches a
  // standalone run — eviction pressure never perturbs results.
  gate.set_value();
  const auto result = blocked.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  BlinkConfig serial = FastConfig(11);
  serial.runtime.num_threads = 1;
  // (gate already released; the standalone run passes straight through)
  GatedSpec standalone_spec(1e-3, &started, gate_future);
  const auto standalone =
      Coordinator(serial).Train(standalone_spec, dense, kTightContract);
  ASSERT_TRUE(standalone.ok());
  ExpectBitwiseEqual(*result, *standalone, "gated job vs standalone");

  // The moment the pinned job released its lease, the 1-byte budget took
  // the now-idle session (and its dataset) too: nothing is left to evict.
  EXPECT_EQ(manager.EvictIdle(), 0);
  const ServeStats end_stats = manager.stats();
  EXPECT_EQ(end_stats.sessions_evicted, 2u);
  EXPECT_EQ(end_stats.live_sessions, 0);
  EXPECT_EQ(end_stats.loaded_datasets, 0);
}

TEST(SessionManager, JobFailuresPropagate) {
  SessionManager manager(ServeOptions{});

  // Unknown dataset: an error Result, not an exception.
  const auto unknown_result =
      manager.Train({"nope", Lr(1e-3), kTightContract});
  ASSERT_FALSE(unknown_result.ok());
  EXPECT_EQ(unknown_result.status().code(), StatusCode::kNotFound);

  // Null spec: invalid argument.
  EXPECT_EQ(manager.Train({"nope", nullptr, kTightContract}).status().code(),
            StatusCode::kInvalidArgument);

  // A throwing dataset factory: the exception reaches the caller, and the
  // failed load is not cached — once the factory recovers, the next job
  // succeeds.
  std::atomic<bool> fail{true};
  ASSERT_TRUE(manager
                  .RegisterDataset("flaky",
                                   [&fail] {
                                     if (fail.load()) {
                                       throw std::runtime_error("disk on fire");
                                     }
                                     return testing::SmallDenseLogistic(
                                         20000, 6, 3);
                                   },
                                   FastConfig(11))
                  .ok());
  EXPECT_THROW(manager.Train({"flaky", Lr(1e-3), kTightContract}),
               std::runtime_error);

  fail.store(false);
  const auto result = manager.Train({"flaky", Lr(1e-3), kTightContract});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->sample_size, 0);

  const ServeStats stats = manager.stats();
  EXPECT_EQ(stats.jobs_submitted, 4u);
  EXPECT_EQ(stats.jobs_completed, 4u);
  EXPECT_EQ(stats.jobs_failed, 3u);
}

// max_concurrent_jobs = 1: while a gated job holds the one slot, a second
// caller waits for it as a queued job, and once the slot frees it runs to
// the same bits as a standalone run.
TEST(SessionManager, CallerWaitsForAJobSlot) {
  const Dataset dense = DenseData();
  ServeOptions options;
  options.max_concurrent_jobs = 1;
  SessionManager manager(options);
  ASSERT_TRUE(
      manager.RegisterDataset("dense", Dataset(dense), FastConfig(11)).ok());

  std::atomic<bool> started{false};
  std::promise<void> gate;
  const std::shared_future<void> gate_future = gate.get_future().share();
  auto gated = std::make_shared<GatedSpec>(1e-3, &started, gate_future);
  auto holder = std::async(std::launch::async, [&] {
    return manager.Train({"dense", gated, kTightContract});
  });
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto waiter = std::async(std::launch::async, [&] {
    return manager.Train({"dense", Lr(1e-2), kTightContract});
  });
  for (int i = 0; i < 10000 && manager.stats().queued_jobs == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    const ServeStats stats = manager.stats();
    EXPECT_EQ(stats.queued_jobs, 1);
    EXPECT_EQ(stats.active_jobs, 1);
    EXPECT_EQ(stats.jobs_submitted, 2u);
    EXPECT_EQ(stats.jobs_completed, 0u);
  }
  EXPECT_EQ(waiter.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);

  gate.set_value();
  ASSERT_TRUE(holder.get().ok());
  const auto result = waiter.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  BlinkConfig serial = FastConfig(11);
  serial.runtime.num_threads = 1;
  const auto standalone =
      Coordinator(serial).Train(*Lr(1e-2), dense, kTightContract);
  ASSERT_TRUE(standalone.ok());
  ExpectBitwiseEqual(*result, *standalone, "waiting caller vs standalone");

  const ServeStats stats = manager.stats();
  EXPECT_EQ(stats.queued_jobs, 0);
  EXPECT_EQ(stats.active_jobs, 0);
  EXPECT_EQ(stats.jobs_completed, 2u);
}

TEST(SessionManager, StatsReportsCachedBytesAndLoadsInProgress) {
  // A factory that blocks until released, so the single-flight load is
  // observable mid-flight through stats().
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  SessionManager manager;
  ASSERT_TRUE(manager
                  .RegisterDataset(
                      "slow",
                      [released] {
                        released.wait();
                        return testing::SmallDenseLogistic(4000, 5, 3);
                      },
                      FastConfig(11))
                  .ok());

  EXPECT_EQ(manager.stats().loads_in_progress, 0);
  EXPECT_EQ(manager.stats().cached_bytes, 0u);

  auto future = std::async(std::launch::async, [&] {
    return manager.Train({"slow", Lr(1e-3), kTightContract});
  });
  // The job is inside the factory until we release it.
  for (int i = 0; i < 1000 && manager.stats().loads_in_progress == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(manager.stats().loads_in_progress, 1);
  release.set_value();
  ASSERT_TRUE(future.get().ok());

  const ServeStats stats = manager.stats();
  EXPECT_EQ(stats.loads_in_progress, 0);
  EXPECT_EQ(stats.loaded_datasets, 1);
  // The completed session retains its sample/Gram caches; that retention
  // is the evictable share of the resident footprint.
  EXPECT_GT(stats.cached_bytes, 0u);
  EXPECT_LE(stats.cached_bytes, stats.resident_bytes);

  manager.EvictIdle();
  EXPECT_EQ(manager.stats().cached_bytes, 0u);
}

}  // namespace
}  // namespace blinkml
