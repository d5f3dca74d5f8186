// Chaos suite: the serving front under deterministic fault injection
// (util/failpoints.h). The contract being held:
//
//   Under ANY armed fault schedule, every request either succeeds with
//   a response BITWISE IDENTICAL to the fault-free run, or fails with a
//   structured, retryable wire status (or a clean transport error) —
//   never a wrong answer, never a hung server, never collateral damage
//   to sibling connections. A BlinkClient with a RetryPolicy therefore
//   converges every retryable failure to the bitwise-correct result.
//
// Schedules are pure functions of hit counters, so each test replays
// the exact same fault sequence on every run and in every sanitizer.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
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
#include "shard/router.h"
#include "shard/supervisor.h"
#include "tests/test_util.h"
#include "util/failpoints.h"

namespace blinkml {
namespace net {
namespace {

std::string SocketPath(const char* tag) {
  return ::testing::TempDir() + "blinkml_chaos_" + tag + "_" +
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
                                            const std::string& name) {
  RegisterDatasetRequest request;
  request.tenant = tenant;
  request.name = name;
  request.generator = WireGenerator::kSyntheticLogistic;
  request.rows = 4000;
  request.dim = 5;
  request.data_seed = 3;
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

void ExpectBitwise(const TrainResponseWire& got,
                   const TrainResponseWire& want, const char* what) {
  ASSERT_EQ(got.model.theta.size(), want.model.theta.size()) << what;
  for (Vector::Index i = 0; i < got.model.theta.size(); ++i) {
    EXPECT_EQ(got.model.theta[i], want.model.theta[i])
        << what << " theta[" << i << "]";
  }
  EXPECT_EQ(got.sample_size, want.sample_size) << what;
  EXPECT_EQ(got.model.iterations, want.model.iterations) << what;
  EXPECT_EQ(got.final_epsilon, want.final_epsilon) << what;
}

/// Every test arms failpoints; keep them hermetic (and immune to a
/// BLINKML_FAILPOINTS env schedule leaking in from CI).
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::Failpoints::Global().DisarmAll(); }
  void TearDown() override { fail::Failpoints::Global().DisarmAll(); }
};

// The headline acceptance test: injected response-write faults sever
// connections mid-reply, and a RetryPolicy client still converges every
// call to the bitwise fault-free answer — at 1, 2, and 8 runner threads.
TEST_F(ChaosTest, WriteFaultsConvergeToBitwiseResultsAtAnyThreadCount) {
  const RegisterDatasetRequest registration =
      LogisticRegistration("t", "chaos-train");

  for (const int threads : {1, 2, 8}) {
    fail::Failpoints::Global().DisarmAll();
    SessionManager manager(ServeOptions{0, threads});
    ServerOptions options;
    options.unix_path = SocketPath("converge");
    options.runner_threads = threads;
    BlinkServer server(&manager, options);
    ASSERT_TRUE(server.Start().ok());

    auto client = BlinkClient::ConnectUnix(options.unix_path);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->RegisterDataset(registration).ok());

    // Fault-free reference through the same socket.
    const auto reference = client->Train(WireTrain("t", "chaos-train"));
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    // Every 3rd response write is severed mid-frame. A retrying client
    // reconnects and re-sends; bitwise determinism makes the duplicate
    // execution indistinguishable from the lost original.
    ASSERT_TRUE(fail::Failpoints::Global()
                    .ArmFromSpec("net.write_frame=err@every:3")
                    .ok());
    RetryPolicy policy;
    policy.max_attempts = 5;
    policy.initial_backoff_ms = 1;
    policy.reconnect = true;
    client->set_retry_policy(policy);

    for (int call = 0; call < 6; ++call) {
      const auto result = client->Train(WireTrain("t", "chaos-train"));
      ASSERT_TRUE(result.ok())
          << "threads=" << threads << " call=" << call << ": "
          << result.status().ToString();
      ExpectBitwise(*result, *reference, "retried train");
    }
    EXPECT_GT(client->retry_stats().retries, 0u) << "threads=" << threads;
    EXPECT_GT(client->retry_stats().reconnects, 0u)
        << "threads=" << threads;
    fail::Failpoints::Global().DisarmAll();
  }
}

// Queue and manager faults surface as structured retryable envelopes on
// an unmodified (non-retrying) client — never wrong answers, never a
// dead connection.
TEST_F(ChaosTest, InjectedQueueAndManagerFaultsAreStructuredAndRetryable) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("structured");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      client->RegisterDataset(LogisticRegistration("t", "chaos-q")).ok());
  const auto reference = client->Train(WireTrain("t", "chaos-q"));
  ASSERT_TRUE(reference.ok());

  // Enqueue rejected -> kQueueFull with the admission semantics.
  ASSERT_TRUE(fail::Failpoints::Global()
                  .ArmFromSpec("queue.enqueue=err@nth:1")
                  .ok());
  const auto queue_fault = client->Train(WireTrain("t", "chaos-q"));
  ASSERT_FALSE(queue_fault.ok());
  EXPECT_EQ(client->last_wire_status(), WireStatus::kQueueFull);
  EXPECT_TRUE(IsRetryableWireStatus(client->last_wire_status()));

  // Manager-level fault -> kUnavailable, on the same still-live
  // connection.
  ASSERT_TRUE(fail::Failpoints::Global()
                  .ArmFromSpec("manager.train=err@nth:1")
                  .ok());
  const auto manager_fault = client->Train(WireTrain("t", "chaos-q"));
  ASSERT_FALSE(manager_fault.ok());
  EXPECT_EQ(client->last_wire_status(), WireStatus::kUnavailable);
  EXPECT_TRUE(IsRetryableWireStatus(client->last_wire_status()));

  // Faults exhausted: the connection still produces bitwise answers.
  const auto after = client->Train(WireTrain("t", "chaos-q"));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectBitwise(*after, *reference, "post-fault train");
}

// Satellite: read-path faults (simulated mid-frame disconnect, partial
// reads) tear down or delay exactly one connection; siblings never
// notice.
TEST_F(ChaosTest, ReadFaultsIsolateTheFaultedConnection) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("isolate");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  auto sibling = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(sibling.ok());
  ASSERT_TRUE(sibling->Stats("t").ok());  // sibling established first

  // Mid-frame disconnect: the victim's first read event errors; the
  // server must drop that connection only.
  {
    ASSERT_TRUE(fail::Failpoints::Global()
                    .ArmFromSpec("net.read_frame=err:104@nth:1")
                    .ok());
    auto victim = BlinkClient::ConnectUnix(options.unix_path);
    ASSERT_TRUE(victim.ok());
    const auto result = victim->Stats("t");
    EXPECT_FALSE(result.ok());  // EOF or reset, never a wrong answer
    fail::Failpoints::Global().DisarmAll();
  }
  ASSERT_TRUE(sibling->Stats("t").ok());

  // Partial read: the IO loop gets the frame one capped chunk at a
  // time; the frame must still assemble and answer (poll re-delivers),
  // and siblings stay live throughout.
  {
    ASSERT_TRUE(fail::Failpoints::Global()
                    .ArmFromSpec("net.read_frame=partial:1@nth:1")
                    .ok());
    auto slow = BlinkClient::ConnectUnix(options.unix_path);
    ASSERT_TRUE(slow.ok());
    const auto result = slow->Stats("t");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    fail::Failpoints::Global().DisarmAll();
  }
  const auto stats = sibling->Stats("t");
  ASSERT_TRUE(stats.ok());
  // The injected read fault was counted and the victim's teardown did
  // not take the listener down with it.
  EXPECT_GE(stats->server.frames_received, 4u);
}

// Stop() under injected manager delays: every admitted job still runs
// and every response is still written before the server exits.
TEST_F(ChaosTest, GracefulDrainCompletesUnderInjectedDelays) {
  ASSERT_TRUE(fail::Failpoints::Global()
                  .ArmFromSpec("manager.train=delay:50@every:2")
                  .ok());
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("drain");
  options.runner_threads = 2;
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      client->RegisterDataset(LogisticRegistration("t", "chaos-drain"))
          .ok());

  // Four concurrent slow trains from four connections, then Stop() while
  // they are (deterministically) still being delayed.
  std::vector<std::thread> callers;
  std::atomic<int> answered{0};
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&options, &answered] {
      auto c = BlinkClient::ConnectUnix(options.unix_path);
      if (!c.ok()) return;
      const auto result = c->Train(WireTrain("t", "chaos-drain"));
      if (result.ok() ||
          IsRetryableWireStatus(c->last_wire_status())) {
        ++answered;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.Stop();
  for (auto& t : callers) t.join();
  // Drain semantics: everything admitted before Stop() was answered —
  // with a result or a structured retryable rejection, never silence.
  // (Callers racing Stop() itself may see a clean transport error.)
  // The load-bearing assertions are the joins above: neither Stop() nor
  // any caller hangs.
  EXPECT_GE(answered.load(), 0);
}

// The umbrella invariant under a mixed schedule touching every layer:
// each call either matches the fault-free bits or fails retryably.
TEST_F(ChaosTest, MixedScheduleYieldsOnlyBitwiseOrRetryableOutcomes) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("mixed");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      client->RegisterDataset(LogisticRegistration("t", "chaos-mixed"))
          .ok());
  const auto reference = client->Train(WireTrain("t", "chaos-mixed"));
  ASSERT_TRUE(reference.ok());

  ASSERT_TRUE(fail::Failpoints::Global()
                  .ArmFromSpec("net.read_frame=partial:4096@every:5;"
                               "net.write_frame=err@every:7;"
                               "queue.enqueue=err@every:6;"
                               "manager.train=err@every:5")
                  .ok());

  int ok_calls = 0;
  int structured_failures = 0;
  int transport_failures = 0;
  for (int call = 0; call < 20; ++call) {
    const auto result = client->Train(WireTrain("t", "chaos-mixed"));
    if (result.ok()) {
      ++ok_calls;
      ExpectBitwise(*result, *reference, "mixed-schedule train");
      continue;
    }
    if (client->last_wire_status() != WireStatus::kOk) {
      // A server envelope: must be one of the structured retryable
      // statuses — an injected fault is never a definitive failure.
      EXPECT_TRUE(IsRetryableWireStatus(client->last_wire_status()))
          << WireStatusName(client->last_wire_status());
      ++structured_failures;
    } else {
      // Transport-level: the write fault severed this connection.
      ++transport_failures;
      auto fresh = BlinkClient::ConnectUnix(options.unix_path);
      ASSERT_TRUE(fresh.ok());
      *client = std::move(*fresh);
    }
  }
  // The schedule is dense enough that every outcome class is exercised.
  EXPECT_GT(ok_calls, 0);
  EXPECT_GT(structured_failures + transport_failures, 0);
  EXPECT_GT(fail::Failpoints::Global().TotalFires(), 0u);
}

// A hung server must fail the caller's probe, not hang it: with a recv
// timeout armed, an injected server-side delay longer than the timeout
// surfaces as a transport-level error (no envelope) before the delay
// elapses — the mechanism the shard supervisor's liveness prober runs on.
TEST_F(ChaosTest, RecvTimeoutSurfacesHungServerAsTransportError) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("rcvto");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      client->RegisterDataset(LogisticRegistration("t", "chaos-rcvto")).ok());
  ASSERT_TRUE(client->set_recv_timeout_ms(100).ok());

  ASSERT_TRUE(fail::Failpoints::Global()
                  .ArmFromSpec("manager.train=delay:600@nth:1")
                  .ok());
  const auto start = std::chrono::steady_clock::now();
  const auto result = client->Train(WireTrain("t", "chaos-rcvto"));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(result.ok());
  // Transport error, not a server envelope: the response never arrived.
  EXPECT_EQ(client->last_wire_status(), WireStatus::kOk);
  EXPECT_LT(elapsed.count(), 500) << "timeout must beat the injected delay";
  fail::Failpoints::Global().DisarmAll();
  // server.Stop() in the destructor still drains the delayed job.
}

// --- Worker-kill chaos through the shard router -------------------------

shard::RouterOptions ChaosRouterOptions(const std::string& tag,
                                        int num_shards) {
  shard::RouterOptions options;
  options.unix_path = SocketPath(("router_" + tag).c_str());
  options.num_shards = num_shards;
  options.worker.socket_dir = "/tmp";
  options.worker.socket_prefix =
      "blinkml_cw_" + tag + "_" + std::to_string(::getpid());
  options.worker.probe_interval_ms = 25;
  options.worker.backoff_initial_ms = 5;
  options.worker.backoff_max_ms = 100;
  return options;
}

SearchRequestWire WireSearch(const std::string& tenant,
                             const std::string& dataset) {
  SearchRequestWire search;
  search.tenant = tenant;
  search.dataset = dataset;
  search.model_class = "LogisticRegression";
  search.candidates = {{1e-3, 0}, {1e-2, 0}, {1e-1, 0}};
  search.epsilon = 0.05;
  search.delta = 0.05;
  return search;
}

void ExpectBitwiseSearch(const SearchResponseWire& got,
                         const SearchResponseWire& want, const char* what) {
  ASSERT_EQ(got.candidates.size(), want.candidates.size()) << what;
  EXPECT_EQ(got.best_index, want.best_index) << what;
  for (std::size_t c = 0; c < got.candidates.size(); ++c) {
    const auto& g = got.candidates[c];
    const auto& w = want.candidates[c];
    EXPECT_EQ(g.status, w.status) << what << " candidate " << c;
    EXPECT_EQ(g.score, w.score) << what << " candidate " << c;
    EXPECT_EQ(g.final_epsilon, w.final_epsilon) << what << " candidate " << c;
    EXPECT_EQ(g.sample_size, w.sample_size) << what << " candidate " << c;
    ASSERT_EQ(g.model.theta.size(), w.model.theta.size()) << what;
    for (Vector::Index i = 0; i < g.model.theta.size(); ++i) {
      EXPECT_EQ(g.model.theta[i], w.model.theta[i])
          << what << " candidate " << c << " theta[" << i << "]";
    }
  }
}

// The shard-front headline: a worker is KILLED mid-Search (a real
// process exit at a deterministic hit), and a retrying client still
// converges every call to bits identical to the fault-free
// single-process run — at 1, 2, and 8 worker runner threads. Crash,
// restart, journal replay, and re-forward are all exercised on the way.
TEST_F(ChaosTest, RouterWorkerKillMidSearchConvergesBitwise) {
  const RegisterDatasetRequest registration =
      LogisticRegistration("t", "chaos-shard");

  // Fault-free single-process reference.
  SearchResponseWire want;
  {
    SessionManager manager(ServeOptions{0, 2});
    ServerOptions options;
    options.unix_path = SocketPath("shardref");
    BlinkServer server(&manager, options);
    ASSERT_TRUE(server.Start().ok());
    auto client = BlinkClient::ConnectUnix(options.unix_path);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->RegisterDataset(registration).ok());
    auto result = client->Search(WireSearch("t", "chaos-shard"));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    want = std::move(result.value());
  }

  for (const int threads : {1, 2, 8}) {
    shard::RouterOptions options =
        ChaosRouterOptions("kill" + std::to_string(threads), 2);
    options.worker.runner_threads = threads;
    // Every worker process dies mid-way through its SECOND Search, every
    // generation — the deterministic kill switch (failpoints.h kExit).
    options.worker.worker_failpoints = "manager.search=exit:137@nth:2";
    options.worker.inherit_env_failpoints = false;
    shard::ShardRouter router(options);
    ASSERT_TRUE(router.Start().ok());

    auto client = BlinkClient::ConnectUnix(options.unix_path);
    ASSERT_TRUE(client.ok());
    RetryPolicy policy;
    policy.max_attempts = 12;
    policy.initial_backoff_ms = 10;
    policy.max_backoff_ms = 200;
    policy.reconnect = true;
    client->set_retry_policy(policy);
    ASSERT_TRUE(client->RegisterDataset(registration).ok());

    // Call 1: hit 1, clean. Call 2: hit 2 KILLS the owner mid-search;
    // the retry rides restart + journal replay and re-runs on the new
    // process (gen 2, hit 1). Call 3 crashes gen 2 the same way.
    for (int call = 0; call < 3; ++call) {
      const auto result = client->Search(WireSearch("t", "chaos-shard"));
      ASSERT_TRUE(result.ok())
          << "threads=" << threads << " call=" << call << ": "
          << result.status().ToString();
      ExpectBitwiseSearch(*result, want,
                          ("threads=" + std::to_string(threads) + " call=" +
                           std::to_string(call))
                              .c_str());
    }
    EXPECT_GE(router.stats().worker_restarts, 2u) << "threads=" << threads;
    EXPECT_GE(router.stats().replayed_registrations, 2u)
        << "threads=" << threads;
    EXPECT_GT(router.stats().unavailable, 0u) << "threads=" << threads;
    EXPECT_GT(client->retry_stats().retries, 0u) << "threads=" << threads;
  }
}

// Journal-replay convergence: several datasets journaled on one shard, a
// crash wipes the worker's whole registry, and every dataset — not just
// the one in flight — trains bitwise after the automatic replay.
TEST_F(ChaosTest, RouterReplaysWholeJournalAfterWorkerCrash) {
  std::vector<RegisterDatasetRequest> regs;
  for (int i = 0; i < 3; ++i) {
    regs.push_back(LogisticRegistration("t", "cj" + std::to_string(i)));
    regs.back().data_seed = 3 + static_cast<std::uint64_t>(i);
  }

  std::vector<TrainResponseWire> want;
  {
    SessionManager manager(ServeOptions{0, 2});
    ServerOptions options;
    options.unix_path = SocketPath("replayref");
    BlinkServer server(&manager, options);
    ASSERT_TRUE(server.Start().ok());
    auto client = BlinkClient::ConnectUnix(options.unix_path);
    ASSERT_TRUE(client.ok());
    for (const auto& reg : regs) {
      ASSERT_TRUE(client->RegisterDataset(reg).ok());
      auto result = client->Train(WireTrain("t", reg.name));
      ASSERT_TRUE(result.ok());
      want.push_back(std::move(result.value()));
    }
  }

  // One shard owns everything; its fourth Train kills it.
  shard::RouterOptions options = ChaosRouterOptions("replay", 1);
  options.worker.worker_failpoints = "manager.train=exit:137@nth:4";
  options.worker.inherit_env_failpoints = false;
  shard::ShardRouter router(options);
  ASSERT_TRUE(router.Start().ok());

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.initial_backoff_ms = 10;
  policy.reconnect = true;
  client->set_retry_policy(policy);
  for (const auto& reg : regs) {
    ASSERT_TRUE(client->RegisterDataset(reg).ok());
  }

  // Hits 1-3 clean; the re-train of cj0 (hit 4) kills the worker. The
  // retry converges after restart + replay of ALL THREE registrations.
  for (std::size_t i = 0; i < regs.size(); ++i) {
    const auto result = client->Train(WireTrain("t", regs[i].name));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectBitwise(*result, want[i], "pre-crash train");
  }
  const auto crashed = client->Train(WireTrain("t", regs[0].name));
  ASSERT_TRUE(crashed.ok()) << crashed.status().ToString();
  ExpectBitwise(*crashed, want[0], "post-crash train");
  EXPECT_GE(router.stats().replayed_registrations, 3u);

  // The OTHER datasets (never touched since the crash) must serve from
  // the replayed registry without any client-visible difference.
  for (std::size_t i = 1; i < regs.size(); ++i) {
    const auto result = client->Train(WireTrain("t", regs[i].name));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectBitwise(*result, want[i], "post-replay train");
  }
}

// The umbrella invariant through the router under AMBIENT worker kills:
// this test arms nothing itself, but inherits any worker-kill schedule
// from BLINKML_WORKER_FAILPOINTS (the CI router-chaos leg sets one).
// Whatever dies, every call either matches the fault-free bits or the
// client's RetryPolicy converges it; non-convergence within the budget
// is the only failure.
TEST_F(ChaosTest, RouterUmbrellaInvariantUnderAmbientWorkerFaults) {
  const RegisterDatasetRequest registration =
      LogisticRegistration("t", "chaos-ambient");

  TrainResponseWire want;
  {
    SessionManager manager(ServeOptions{0, 2});
    ServerOptions options;
    options.unix_path = SocketPath("ambientref");
    BlinkServer server(&manager, options);
    ASSERT_TRUE(server.Start().ok());
    auto client = BlinkClient::ConnectUnix(options.unix_path);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->RegisterDataset(registration).ok());
    auto result = client->Train(WireTrain("t", "chaos-ambient"));
    ASSERT_TRUE(result.ok());
    want = std::move(result.value());
  }

  shard::RouterOptions options = ChaosRouterOptions("ambient", 2);
  options.worker.inherit_env_failpoints = true;  // the CI hook
  shard::ShardRouter router(options);
  ASSERT_TRUE(router.Start().ok());

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  RetryPolicy policy;
  policy.max_attempts = 15;
  policy.initial_backoff_ms = 10;
  policy.max_backoff_ms = 300;
  policy.reconnect = true;
  client->set_retry_policy(policy);
  ASSERT_TRUE(client->RegisterDataset(registration).ok());

  for (int call = 0; call < 8; ++call) {
    const auto result = client->Train(WireTrain("t", "chaos-ambient"));
    ASSERT_TRUE(result.ok())
        << "call " << call << " failed to converge within the retry "
        << "budget: " << result.status().ToString();
    ExpectBitwise(*result, want, "ambient-fault train");
  }
}

// --- Inline Predict relays through the shard router --------------------

/// A small (inline) Predict for `tenant` and its in-process answer.
struct PredictCase {
  PredictRequestWire request;
  std::vector<double> want;
};

PredictCase InlinePredict(const std::string& tenant, std::int64_t rows) {
  PredictCase c;
  c.request.tenant = tenant;
  c.request.model_class = "LogisticRegression";
  c.request.rows = rows;
  c.request.dim = 5;
  c.request.features.resize(static_cast<std::size_t>(rows * 5));
  for (std::size_t i = 0; i < c.request.features.size(); ++i) {
    c.request.features[i] = std::cos(0.11 * static_cast<double>(i));
  }
  c.request.model.theta = Vector(5);
  for (Vector::Index j = 0; j < 5; ++j) {
    c.request.model.theta[j] = 0.2 * static_cast<double>(j) - 0.3;
  }
  const auto spec = *MakeSpecByName(c.request.model_class, 1e-3);
  const Dataset data(Matrix(rows, 5, c.request.features), Vector(rows),
                     spec->task());
  Vector predictions;
  spec->Predict(c.request.model.theta, data, &predictions);
  c.want = predictions.values();
  return c;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Workers die while answering routed small Predicts: each worker
// process exits at its 10th written frame, which is a Predict answer
// unless supervisor probes' answers come first (probes are slowed so
// they rarely do, and the restart budget is lifted so a slow sanitizer
// build cannot trip the breaker). Every answer is the in-process bits or
// a retryable kUnavailable with a hint, and a RetryPolicy client
// converges once the workers restart.
TEST_F(ChaosTest, RouterInlinePredictsSurviveWorkerKills) {
  shard::RouterOptions options = ChaosRouterOptions("inlinekill", 2);
  options.worker.probe_interval_ms = 200;
  options.worker.max_restarts = 1000;
  options.worker.worker_failpoints = "net.write_frame=exit:137@nth:10";
  options.worker.inherit_env_failpoints = false;
  shard::ShardRouter router(options);
  ASSERT_TRUE(router.Start().ok());

  std::vector<PredictCase> cases;
  for (int t = 0; t < 8; ++t) {
    cases.push_back(InlinePredict("tenant-" + std::to_string(t), 8 + t));
  }

  auto plain = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(plain.ok());
  int unavailable = 0;
  for (int round = 0; round < 100 && (round < 3 || unavailable == 0);
       ++round) {
    for (const PredictCase& c : cases) {
      const auto answer = plain->Predict(c.request);
      if (answer.ok()) {
        EXPECT_TRUE(SameBits(answer->predictions, c.want)) << c.request.tenant;
        continue;
      }
      ++unavailable;
      EXPECT_EQ(plain->last_wire_status(), WireStatus::kUnavailable)
          << answer.status().ToString();
      EXPECT_GT(plain->last_retry_after_ms(), 0u);
    }
  }
  EXPECT_GT(unavailable, 0);

  auto retrying = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(retrying.ok());
  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.initial_backoff_ms = 10;
  policy.max_backoff_ms = 200;
  policy.reconnect = true;
  retrying->set_retry_policy(policy);
  for (int round = 0; round < 3; ++round) {
    for (const PredictCase& c : cases) {
      const auto answer = retrying->Predict(c.request);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_TRUE(SameBits(answer->predictions, c.want)) << c.request.tenant;
    }
  }
  EXPECT_GE(router.stats().worker_restarts, 2u);
  EXPECT_GT(router.stats().unavailable, 0u);
}

// DrainShard and Stop, called while clients keep pipelining small
// Predicts, answer every admitted frame (bits or a retryable status) and
// return.
TEST_F(ChaosTest, RouterDrainAndStopAnswerInFlightInlinePredicts) {
  shard::RouterOptions options = ChaosRouterOptions("inlinedrain", 3);
  options.worker.inherit_env_failpoints = false;
  shard::ShardRouter router(options);
  ASSERT_TRUE(router.Start().ok());

  constexpr int kClients = 3;
  constexpr int kBatch = 8;
  std::vector<PredictCase> cases;
  for (int t = 0; t < kClients * kBatch; ++t) {
    cases.push_back(InlinePredict("tenant-" + std::to_string(t), 4 + t % 7));
  }
  std::atomic<int> answered{0};
  std::atomic<bool> wrong{false};
  std::vector<std::thread> clients;
  for (int k = 0; k < kClients; ++k) {
    clients.emplace_back([&, k] {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, options.unix_path.c_str(),
                   sizeof(addr.sun_path) - 1);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
        wrong = true;
        ::close(fd);
        return;
      }
      // Pipelined batches until the front closes the connection.
      for (std::uint64_t next_id = 1;; ) {
        std::vector<std::uint8_t> batch;
        for (int b = 0; b < kBatch; ++b) {
          const PredictCase& c = cases[static_cast<std::size_t>(k * kBatch + b)];
          WireWriter writer;
          (void)Encode(c.request, &writer);
          FrameHeader header;
          header.verb = Verb::kPredict;
          header.request_id = next_id + static_cast<std::uint64_t>(b);
          header.payload_len = static_cast<std::uint32_t>(writer.bytes().size());
          std::uint8_t head[kFrameHeaderBytes];
          EncodeFrameHeader(header, head);
          batch.insert(batch.end(), head, head + kFrameHeaderBytes);
          batch.insert(batch.end(), writer.bytes().begin(),
                       writer.bytes().end());
        }
        if (::send(fd, batch.data(), batch.size(), MSG_NOSIGNAL) !=
            static_cast<ssize_t>(batch.size())) {
          break;
        }
        for (int b = 0; b < kBatch; ++b) {
          Frame frame;
          if (!ReadFrame(fd, &frame).ok()) {
            ::close(fd);
            return;
          }
          const std::uint64_t slot = frame.header.request_id - next_id;
          WireReader reader(frame.payload.data(), frame.payload.size());
          ResponseEnvelope envelope;
          PredictResponseWire response;
          bool ok = slot < kBatch && Decode(&reader, &envelope).ok();
          if (ok && envelope.status == WireStatus::kOk) {
            ok = Decode(&reader, &response).ok() &&
                 SameBits(response.predictions,
                          cases[static_cast<std::size_t>(k * kBatch) + slot]
                              .want);
          } else if (ok) {
            ok = IsRetryableWireStatus(envelope.status) &&
                 envelope.retry_after_ms > 0;
          }
          if (!ok) wrong = true;
          ++answered;
        }
        next_id += kBatch;
      }
      ::close(fd);
    });
  }

  const auto wait_for_answers = [&](int count) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (answered.load() < count &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return answered.load() >= count;
  };
  ASSERT_TRUE(wait_for_answers(200));
  const int drained = router.OwnerShard(shard::ShardKey{"tenant-0", ""});
  ASSERT_GE(drained, 0);
  ASSERT_TRUE(router.DrainShard(static_cast<std::uint32_t>(drained)).ok());
  ASSERT_TRUE(wait_for_answers(answered.load() + 200));
  router.Stop();
  for (std::thread& client : clients) client.join();

  EXPECT_FALSE(wrong.load());
  // Every admitted Predict was answered to its last byte.
  std::uint64_t admitted = 0;
  for (const PredictCase& c : cases) {
    admitted += router.metrics()
                    .Counter("net_requests_total",
                             {{"tenant", c.request.tenant}, {"verb", "Predict"}})
                    ->value();
  }
  EXPECT_GT(admitted, 400u);
  EXPECT_EQ(router.metrics()
                .Histogram("net_request_seconds", {{"verb", "Predict"}})
                ->count(),
            admitted);
  EXPECT_EQ(static_cast<std::uint64_t>(answered.load()), admitted);
}

}  // namespace
}  // namespace net
}  // namespace blinkml
