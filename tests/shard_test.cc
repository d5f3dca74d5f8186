// Shard-router suite: rendezvous placement, the registration journal,
// and the supervised cross-process front (shard/router.h) end to end —
// real forked workers over real sockets.
//
// The invariant every end-to-end test holds is the serving contract
// extended across processes: a job routed through the shard front
// returns bytes BITWISE IDENTICAL to the same request served by one
// in-process SessionManager, whatever the placement — and placement
// changes (drain migration, breaker reassignment) are invisible except
// as capacity.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/codec.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serve/session_manager.h"
#include "shard/hashing.h"
#include "shard/journal.h"
#include "shard/router.h"
#include "shard/supervisor.h"
#include "util/failpoints.h"

namespace blinkml {
namespace shard {
namespace {

using net::BlinkClient;
using net::RegisterDatasetRequest;
using net::RetryPolicy;
using net::TrainRequestWire;
using net::TrainResponseWire;
using net::WireConfig;
using net::WireGenerator;

std::string SocketPath(const char* tag) {
  return ::testing::TempDir() + "blinkml_sr_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

WireConfig FastWireConfig(std::uint64_t seed) {
  WireConfig config;
  config.seed = seed;
  config.initial_sample_size = 1000;
  config.holdout_size = 1000;
  config.accuracy_samples = 256;
  config.size_samples = 128;
  return config;
}

RegisterDatasetRequest LogisticRegistration(const std::string& tenant,
                                            const std::string& name,
                                            std::uint64_t data_seed = 3) {
  RegisterDatasetRequest request;
  request.tenant = tenant;
  request.name = name;
  request.generator = WireGenerator::kSyntheticLogistic;
  request.rows = 4000;
  request.dim = 5;
  request.data_seed = data_seed;
  request.config = FastWireConfig(11);
  return request;
}

TrainRequestWire WireTrain(const std::string& tenant,
                           const std::string& dataset) {
  TrainRequestWire train;
  train.tenant = tenant;
  train.dataset = dataset;
  train.model_class = "LogisticRegression";
  train.epsilon = 0.05;
  train.delta = 0.05;
  return train;
}

void ExpectBitwise(const TrainResponseWire& got, const TrainResponseWire& want,
                   const std::string& what) {
  ASSERT_EQ(got.model.theta.size(), want.model.theta.size()) << what;
  for (Vector::Index i = 0; i < got.model.theta.size(); ++i) {
    EXPECT_EQ(got.model.theta[i], want.model.theta[i])
        << what << " theta[" << i << "]";
  }
  EXPECT_EQ(got.sample_size, want.sample_size) << what;
  EXPECT_EQ(got.model.iterations, want.model.iterations) << what;
  EXPECT_EQ(got.final_epsilon, want.final_epsilon) << what;
}

/// Router options wired for tests: short sockets, fast probe/backoff,
/// and NO ambient failpoint inheritance — these tests assert exact
/// placement and lifecycle counts, which a CI-armed worker-kill
/// schedule would perturb (the tolerance tests live in chaos_test.cc).
RouterOptions TestRouterOptions(const char* tag, int num_shards) {
  RouterOptions options;
  options.unix_path = SocketPath(tag);
  options.num_shards = num_shards;
  options.worker.socket_dir = "/tmp";
  options.worker.socket_prefix =
      std::string("blinkml_sw_") + tag + "_" + std::to_string(::getpid());
  options.worker.inherit_env_failpoints = false;
  options.worker.probe_interval_ms = 50;
  options.worker.probe_timeout_ms = 2000;
  options.worker.backoff_initial_ms = 5;
  options.worker.backoff_max_ms = 100;
  return options;
}

/// Fault-free single-process reference: one SessionManager behind one
/// BlinkServer, all registrations applied, one Train per request.
class ReferenceServer {
 public:
  explicit ReferenceServer(const std::vector<RegisterDatasetRequest>& regs)
      : manager_(ServeOptions{0, 2}) {
    net::ServerOptions options;
    options.unix_path = SocketPath("ref");
    server_ = std::make_unique<net::BlinkServer>(&manager_, options);
    BLINKML_CHECK(server_->Start().ok());
    auto client = BlinkClient::ConnectUnix(options.unix_path);
    BLINKML_CHECK(client.ok());
    client_ = std::make_unique<BlinkClient>(std::move(client.value()));
    for (const auto& reg : regs) {
      BLINKML_CHECK(client_->RegisterDataset(reg).ok());
    }
  }

  TrainResponseWire Train(const TrainRequestWire& request) {
    auto result = client_->Train(request);
    BLINKML_CHECK_MSG(result.ok(), result.status().ToString());
    return std::move(result.value());
  }

 private:
  SessionManager manager_;
  std::unique_ptr<net::BlinkServer> server_;
  std::unique_ptr<BlinkClient> client_;
};

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::Failpoints::Global().DisarmAll(); }
  void TearDown() override { fail::Failpoints::Global().DisarmAll(); }
};

// --- Rendezvous hashing -------------------------------------------------

TEST(RendezvousHashing, DeterministicAndRoughlyBalanced) {
  const std::vector<std::uint32_t> shards{0, 1, 2, 3};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 2000; ++i) {
    const ShardKey key{"tenant" + std::to_string(i % 7),
                       "ds" + std::to_string(i)};
    const int owner = RendezvousOwner(key, shards);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 4);
    ASSERT_EQ(owner, RendezvousOwner(key, shards)) << "non-deterministic";
    counts[static_cast<std::size_t>(owner)]++;
  }
  // Expectation is 500 per shard; 2000 keys concentrate tightly enough
  // that 300 is a conservative floor (the weights are a fixed function,
  // so this never flakes).
  for (const int c : counts) EXPECT_GT(c, 300);
}

TEST(RendezvousHashing, RemovingAShardMovesOnlyItsOwnKeys) {
  const std::vector<std::uint32_t> all{0, 1, 2, 3};
  const std::vector<std::uint32_t> survivors{0, 1, 3};
  int moved = 0;
  for (int i = 0; i < 1000; ++i) {
    const ShardKey key{"t" + std::to_string(i % 5), "d" + std::to_string(i)};
    const int before = RendezvousOwner(key, all);
    const int after = RendezvousOwner(key, survivors);
    if (before != 2) {
      EXPECT_EQ(before, after) << "key " << i << " moved without cause";
    } else {
      EXPECT_NE(after, 2);
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);  // shard 2 owned a real share
}

TEST(RendezvousHashing, KeyFieldsDoNotConcatenate) {
  EXPECT_NE(ShardKeyHash(ShardKey{"ab", "c"}), ShardKeyHash(ShardKey{"a", "bc"}));
  EXPECT_NE(ShardKeyHash(ShardKey{"ab", ""}), ShardKeyHash(ShardKey{"a", "b"}));
  EXPECT_EQ(RendezvousOwner(ShardKey{"t", "d"}, {}), -1);
}

// --- Registration journal -----------------------------------------------

TEST(RegistrationJournalTest, IdempotentRecordConflictsRejected) {
  RegistrationJournal journal;
  const RegisterDatasetRequest reg = LogisticRegistration("t", "d0");
  ASSERT_TRUE(journal.Record(reg).ok());
  ASSERT_TRUE(journal.Record(reg).ok()) << "identical re-record must be OK";
  EXPECT_EQ(journal.size(), 1u);
  EXPECT_TRUE(journal.Contains("t", "d0"));
  EXPECT_FALSE(journal.Contains("t", "d1"));

  RegisterDatasetRequest conflicting = reg;
  conflicting.data_seed = 99;
  const Status st = journal.Record(conflicting);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // The original stays.
  EXPECT_EQ(journal.Snapshot()[0].data_seed, reg.data_seed);

  // Same name under another tenant is a distinct key, not a conflict.
  RegisterDatasetRequest other_tenant = reg;
  other_tenant.tenant = "u";
  EXPECT_TRUE(journal.Record(other_tenant).ok());
  EXPECT_EQ(journal.size(), 2u);
}

TEST(RegistrationJournalTest, SnapshotPreservesInsertionOrder) {
  RegistrationJournal journal;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        journal.Record(LogisticRegistration("t", "d" + std::to_string(i)))
            .ok());
  }
  const auto entries = journal.Snapshot();
  ASSERT_EQ(entries.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(entries[static_cast<std::size_t>(i)].name,
              "d" + std::to_string(i));
  }
}

// --- Router end to end --------------------------------------------------

// The tentpole acceptance test: jobs routed through the cross-process
// shard front return bytes identical to the single-process run, at
// every worker runner-thread count.
TEST_F(ShardTest, RoutedTrainsAreBitwiseIdenticalToSingleProcess) {
  std::vector<RegisterDatasetRequest> regs;
  for (int i = 0; i < 5; ++i) {
    regs.push_back(LogisticRegistration(i % 2 == 0 ? "ta" : "tb",
                                        "d" + std::to_string(i),
                                        /*data_seed=*/3 + i));
  }
  ReferenceServer reference(regs);
  std::map<std::string, TrainResponseWire> want;
  for (const auto& reg : regs) {
    want[reg.name] = reference.Train(WireTrain(reg.tenant, reg.name));
  }

  for (const int threads : {1, 2, 8}) {
    RouterOptions options = TestRouterOptions(
        ("bw" + std::to_string(threads)).c_str(), /*num_shards=*/3);
    options.worker.runner_threads = threads;
    ShardRouter router(options);
    ASSERT_TRUE(router.Start().ok());

    auto client = BlinkClient::ConnectUnix(options.unix_path);
    ASSERT_TRUE(client.ok());
    for (const auto& reg : regs) {
      const auto response = client->RegisterDataset(reg);
      ASSERT_TRUE(response.ok())
          << reg.name << ": " << response.status().ToString();
      EXPECT_GT(response->dataset_bytes, 0u);
    }
    EXPECT_EQ(router.journal().size(), regs.size());

    for (const auto& reg : regs) {
      const auto got = client->Train(WireTrain(reg.tenant, reg.name));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectBitwise(*got, want[reg.name],
                    "threads=" + std::to_string(threads) + " " + reg.name);
    }

    // Aggregation verbs: Health answers locally, Stats sums the shards.
    const auto health = client->Health("ta");
    ASSERT_TRUE(health.ok());
    EXPECT_TRUE(health->accepting);
    EXPECT_FALSE(health->shedding);
    const auto stats = client->Stats("ta");
    ASSERT_TRUE(stats.ok());
    EXPECT_GE(stats->manager.jobs_completed, 5u);
    EXPECT_GE(stats->server.frames_received, 10u);
    const auto metrics = client->Metrics("ta");
    ASSERT_TRUE(metrics.ok());
    EXPECT_NE(metrics->text.find("# shard 0"), std::string::npos);
    EXPECT_NE(metrics->text.find("# router"), std::string::npos);
    EXPECT_NE(metrics->text.find("shard_forwarded_total"), std::string::npos);
    // The router section carries the hop next to the router front's own
    // queue, connection and rejection series.
    const std::string router_section = metrics->text.substr(
        std::min(metrics->text.find("# router"), metrics->text.size()));
    for (const char* name :
         {"shard_forward_seconds", "net_queue_wait_seconds",
          "net_open_connections", "net_rejected_total"}) {
      EXPECT_NE(router_section.find(name), std::string::npos) << name;
    }

    EXPECT_GE(router.stats().forwarded, 2u * regs.size());
    EXPECT_EQ(router.stats().unavailable, 0u);
  }
}

// An idempotent re-registration answers kOk through the router; a
// conflicting one is rejected at the journal, before any worker sees it.
TEST_F(ShardTest, RouterRegistrationIdempotencyAndConflicts) {
  RouterOptions options = TestRouterOptions("reg", 2);
  ShardRouter router(options);
  ASSERT_TRUE(router.Start().ok());
  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());

  const RegisterDatasetRequest reg = LogisticRegistration("t", "dup");
  ASSERT_TRUE(client->RegisterDataset(reg).ok());
  ASSERT_TRUE(client->RegisterDataset(reg).ok()) << "idempotent retry";
  EXPECT_EQ(router.journal().size(), 1u);

  RegisterDatasetRequest conflicting = reg;
  conflicting.rows = 1234;
  const auto rejected = client->RegisterDataset(conflicting);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(client->last_wire_status(), net::WireStatus::kInvalidArgument);
}

// Planned drain: registrations migrate FIRST, the routing flips second,
// and trains keep answering the same bytes with zero unavailability —
// on a client with NO retry policy.
TEST_F(ShardTest, DrainMigratesKeysAndKeepsServingBitwise) {
  std::vector<RegisterDatasetRequest> regs;
  for (int i = 0; i < 6; ++i) {
    regs.push_back(
        LogisticRegistration("t", "dd" + std::to_string(i), 3 + i));
  }
  RouterOptions options = TestRouterOptions("drain", 2);
  ShardRouter router(options);
  ASSERT_TRUE(router.Start().ok());
  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());

  std::map<std::string, TrainResponseWire> before;
  int owned_by_zero = 0;
  for (const auto& reg : regs) {
    ASSERT_TRUE(client->RegisterDataset(reg).ok());
    if (router.OwnerShard(ShardKey{reg.tenant, reg.name}) == 0) {
      ++owned_by_zero;
    }
    auto got = client->Train(WireTrain(reg.tenant, reg.name));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    before.emplace(reg.name, std::move(got.value()));
  }
  ASSERT_GT(owned_by_zero, 0) << "fixture must place keys on shard 0";

  ASSERT_TRUE(router.DrainShard(0).ok());
  EXPECT_EQ(router.Members(), std::vector<std::uint32_t>{1});
  EXPECT_EQ(router.stats().migrated_registrations,
            static_cast<std::uint64_t>(owned_by_zero));
  EXPECT_EQ(router.supervisor().status(0).state, WorkerState::kStopped);

  // Every dataset — including the migrated ones — answers the same
  // bytes, with no retryable blip visible to this policy-free client.
  for (const auto& reg : regs) {
    const auto after = client->Train(WireTrain(reg.tenant, reg.name));
    ASSERT_TRUE(after.ok()) << reg.name << ": " << after.status().ToString();
    ExpectBitwise(*after, before[reg.name], "post-drain " + reg.name);
  }
  EXPECT_EQ(router.stats().unavailable, 0u);

  // The last member must not drain.
  EXPECT_FALSE(router.DrainShard(1).ok());
  // Neither can a shard that already left.
  EXPECT_FALSE(router.DrainShard(0).ok());
}

// Restart-storm breaker: with a zero restart budget, the first worker
// death trips the breaker, keys migrate to the survivor, and a retrying
// client converges to bitwise-identical results on the new owner.
TEST_F(ShardTest, BreakerTripsMigratesAndDegradesGracefully) {
  const RegisterDatasetRequest reg = LogisticRegistration("t", "trip");
  ReferenceServer reference({reg});
  const TrainResponseWire want = reference.Train(WireTrain("t", "trip"));

  RouterOptions options = TestRouterOptions("trip", 2);
  options.worker.max_restarts = 0;  // any death trips immediately
  // Every worker dies at its second Train — deterministic at the hit.
  options.worker.worker_failpoints = "manager.train=exit:137@nth:2";
  ShardRouter router(options);
  ASSERT_TRUE(router.Start().ok());

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.initial_backoff_ms = 10;
  policy.max_backoff_ms = 200;
  policy.reconnect = true;
  client->set_retry_policy(policy);

  ASSERT_TRUE(client->RegisterDataset(reg).ok());
  const int victim = router.OwnerShard(ShardKey{"t", "trip"});
  ASSERT_GE(victim, 0);

  // Hit 1 on the owner: clean, bitwise.
  const auto first = client->Train(WireTrain("t", "trip"));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ExpectBitwise(*first, want, "pre-trip train");

  // Hit 2 kills the owner mid-request; the breaker trips (budget 0),
  // the key migrates, and the retry converges on the survivor.
  const auto second = client->Train(WireTrain("t", "trip"));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ExpectBitwise(*second, want, "post-trip train");

  EXPECT_EQ(router.stats().workers_tripped, 1u);
  EXPECT_EQ(router.Members().size(), 1u);
  EXPECT_EQ(router.Members()[0],
            victim == 0 ? 1u : 0u);
  EXPECT_EQ(router.supervisor().status(static_cast<std::uint32_t>(victim))
                .state,
            WorkerState::kTripped);
  EXPECT_GE(router.stats().migrated_registrations, 1u);
  EXPECT_GT(client->retry_stats().retries, 0u);
}

// A dead shard answers kUnavailable with a retry-after hint — never a
// hang, never a wrong answer — and Health reports the degradation.
TEST_F(ShardTest, DeadShardAnswersStructuredUnavailable) {
  const RegisterDatasetRequest reg = LogisticRegistration("t", "down");
  RouterOptions options = TestRouterOptions("down", 2);
  // A long backoff pins the worker in kBackoff while we observe it.
  options.worker.backoff_initial_ms = 3000;
  options.worker.backoff_max_ms = 3000;
  options.worker.worker_failpoints = "manager.train=exit:137@nth:1";
  ShardRouter router(options);
  ASSERT_TRUE(router.Start().ok());

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->RegisterDataset(reg).ok());

  // First Train kills the owner; the policy-free client sees either the
  // transport cut or (on a fresh connection) structured kUnavailable.
  (void)client->Train(WireTrain("t", "down"));
  auto fresh = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(fresh.ok());
  const auto down = fresh->Train(WireTrain("t", "down"));
  ASSERT_FALSE(down.ok());
  EXPECT_EQ(fresh->last_wire_status(), net::WireStatus::kUnavailable);
  EXPECT_TRUE(net::IsRetryableWireStatus(fresh->last_wire_status()));
  EXPECT_GT(fresh->last_retry_after_ms(), 0u);

  // The supervisor marks the death within a probe interval (the router's
  // NoteSuspect wakes it early); poll Health until it shows.
  bool shedding = false;
  for (int i = 0; i < 200 && !shedding; ++i) {
    const auto health = fresh->Health("t");
    ASSERT_TRUE(health.ok());
    EXPECT_TRUE(health->accepting);
    shedding = health->shedding;
    if (!shedding) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(shedding) << "a down member shard must degrade Health";
}

// net_request_seconds{verb=} runs from admission to the answer's last
// byte at each front: a routed Predict shows up in the worker's series
// and in the router's own.
TEST_F(ShardTest, RequestSecondsCoverPredictAtWorkerAndRouter) {
  RouterOptions options = TestRouterOptions("reqsec", 1);
  ShardRouter router(options);
  ASSERT_TRUE(router.Start().ok());
  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());

  net::PredictRequestWire predict;
  predict.tenant = "t";
  predict.model_class = "LogisticRegression";
  predict.rows = 4;
  predict.dim = 3;
  predict.features.assign(12, 0.25);
  predict.model.theta = Vector(3);
  ASSERT_TRUE(client->Predict(predict).ok());

  const auto metrics = client->Metrics("t");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const std::string& text = metrics->text;
  const std::size_t router_at = text.find("# router");
  ASSERT_NE(router_at, std::string::npos) << text;
  const std::string series = "net_request_seconds_count{verb=\"Predict\"} 1";
  const std::size_t worker_series = text.find(series);
  EXPECT_LT(worker_series, router_at) << text;
  EXPECT_NE(text.find(series, router_at), std::string::npos) << text;
}

}  // namespace
}  // namespace shard
}  // namespace blinkml
