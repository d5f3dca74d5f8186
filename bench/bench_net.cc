// Networked-serving smoke benchmark under injected faults: starts a
// BlinkServer on a Unix socket, drives it with retrying BlinkClients
// (register, one Train, a burst of Predict calls) while a deterministic
// fault schedule (util/failpoints.h) severs every 9th response write and
// rejects every 13th enqueue, and reports goodput, per-request latency
// percentiles and retry/reconnect/injection counts. Exit status asserts
// the transparency contract: every call must converge to results bitwise
// identical to the same calls against an in-process SessionManager.
// (Fault-free socket latency is the end-to-end benchmark's job:
// bench_e2e predict-sharded.)
//
//   $ ./build/bench_net [--json[=path]] [--threads=N]
//                       [--requests=N] [--runner-threads=N] [--clients=N]
//                       [--shards=N]
//
// Honors BLINKML_SCALE (dataset rows). With --json the summary is
// written to BENCH_net.json.
//
// --shards=N (N > 0) benches the supervised shard router instead of a
// bare BlinkServer: N worker processes behind shard/router.h, a Train
// burst from retrying clients spread over 2N datasets, and a SCRIPTED
// WORKER KILL (SIGKILL to one worker pid mid-burst). Reported: goodput
// (bitwise-verified successes over the whole clock, kill included),
// failover convergence time (kill -> first OK response on a key owned
// by the killed shard, riding restart + journal replay), and total
// retries/unavailable rejections. Exit status asserts every call
// converged to bits identical to the in-process reference.

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "data/dataset.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "serve/session_manager.h"
#include "shard/hashing.h"
#include "shard/router.h"
#include "util/failpoints.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace blinkml;
using namespace blinkml::net;

std::string SocketPath() {
  return "/tmp/blinkml_bench_net_" + std::to_string(::getpid()) + ".sock";
}

RegisterDatasetRequest MakeRegistration(double scale) {
  RegisterDatasetRequest request;
  request.tenant = "bench";
  request.name = "bench-logistic";
  request.generator = WireGenerator::kSyntheticLogistic;
  request.rows = static_cast<std::int64_t>(20'000 * scale);
  request.dim = 16;
  request.data_seed = 3;
  request.sparsity = 1.0;
  request.noise = 0.1;
  request.config.seed = 11;
  request.config.initial_sample_size = 4000;
  request.config.holdout_size = 2000;
  request.config.stats_sample_size = 256;
  request.config.accuracy_samples = 128;
  request.config.size_samples = 128;
  return request;
}

bool ModelsBitwiseEqual(const TrainedModel& a, const TrainedModel& b) {
  if (a.theta.size() != b.theta.size()) return false;
  return MaxAbsDiff(a.theta, b.theta) == 0.0 &&
         a.iterations == b.iterations && a.sample_size == b.sample_size;
}

// --- The --shards leg: router + worker fleet + scripted kill ----------

RegisterDatasetRequest MakeShardRegistration(double scale, int index) {
  RegisterDatasetRequest request;
  request.tenant = "bench";
  request.name = "shard-logistic-" + std::to_string(index);
  request.generator = WireGenerator::kSyntheticLogistic;
  request.rows = static_cast<std::int64_t>(4000 * scale);
  request.dim = 8;
  request.data_seed = 3 + static_cast<std::uint64_t>(index);
  request.config.seed = 11;
  request.config.initial_sample_size = 1000;
  request.config.holdout_size = 1000;
  request.config.accuracy_samples = 256;
  request.config.size_samples = 128;
  return request;
}

struct RefTrain {
  TrainedModel model;
  double final_epsilon = 0.0;
  std::int64_t sample_size = 0;
};

bool TrainBitwise(const TrainResponseWire& got, const RefTrain& want) {
  return ModelsBitwiseEqual(got.model, want.model) &&
         got.final_epsilon == want.final_epsilon &&
         got.sample_size == want.sample_size;
}

int RunShardedBench(int shards, int requests, int runner_threads,
                    int clients, const blinkml::bench::BenchFlags& flags,
                    double scale) {
  using namespace blinkml::bench;
  using blinkml::shard::RouterOptions;
  using blinkml::shard::ShardKey;
  using blinkml::shard::ShardRouter;

  const int num_datasets = 2 * shards;
  std::vector<RegisterDatasetRequest> registrations;
  for (int i = 0; i < num_datasets; ++i) {
    registrations.push_back(MakeShardRegistration(scale, i));
  }

  PrintHeader("Sharded serving: supervised router + worker fleet");
  std::printf(
      "shards=%d datasets=%d rows=%lld requests=%d clients=%d "
      "runner_threads=%d\n",
      shards, num_datasets,
      static_cast<long long>(registrations[0].rows), requests, clients,
      runner_threads);

  // In-process references — the bitwise target for every routed Train.
  std::vector<RefTrain> references;
  {
    SessionManager reference;
    for (const auto& registration : registrations) {
      const Status st = reference.RegisterDataset(
          registration.name,
          [registration] {
            return std::move(*MakeWireDataset(registration));
          },
          ToBlinkConfig(registration.config));
      if (!st.ok()) {
        std::fprintf(stderr, "reference register failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      TrainRequest reference_train;
      reference_train.dataset = registration.name;
      reference_train.spec = *MakeSpecByName("LogisticRegression", 1e-3);
      reference_train.contract = {0.05, 0.05};
      const auto result = reference.Train(reference_train);
      if (!result.ok()) {
        std::fprintf(stderr, "reference train failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      references.push_back(
          {result->model, result->final_epsilon, result->sample_size});
    }
  }

  RouterOptions options;
  options.unix_path =
      "/tmp/blinkml_bench_router_" + std::to_string(::getpid()) + ".sock";
  options.num_shards = shards;
  options.worker.socket_prefix =
      "blinkml_bench_" + std::to_string(::getpid());
  options.worker.runner_threads = runner_threads;
  options.worker.probe_interval_ms = 50;
  ShardRouter router(options);
  {
    const Status st = router.Start();
    if (!st.ok()) {
      std::fprintf(stderr, "router start failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  {
    auto setup = BlinkClient::ConnectUnix(options.unix_path);
    if (!setup.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   setup.status().ToString().c_str());
      return 1;
    }
    for (const auto& registration : registrations) {
      const auto registered = setup->RegisterDataset(registration);
      if (!registered.ok()) {
        std::fprintf(stderr, "register failed: %s\n",
                     registered.status().ToString().c_str());
        return 1;
      }
    }
  }

  auto wire_train = [&](int dataset) {
    TrainRequestWire train;
    train.tenant = "bench";
    train.dataset = registrations[static_cast<std::size_t>(dataset)].name;
    train.model_class = "LogisticRegression";
    train.l2 = 1e-3;
    train.epsilon = 0.05;
    train.delta = 0.05;
    return train;
  };

  // The burst: retrying clients, datasets round-robined so every shard
  // owns live traffic when the kill lands.
  const int total_requests = requests * clients;
  std::vector<double> latencies(static_cast<std::size_t>(total_requests),
                                0.0);
  std::vector<char> client_bitwise(static_cast<std::size_t>(clients), 0);
  std::vector<std::uint64_t> client_retries(
      static_cast<std::size_t>(clients), 0);
  std::atomic<int> failed_calls{0};
  WallTimer burst_timer;
  std::vector<std::thread> drivers;
  for (int c = 0; c < clients; ++c) {
    drivers.emplace_back([&, c] {
      auto conn = BlinkClient::ConnectUnix(options.unix_path);
      if (!conn.ok()) {
        std::fprintf(stderr, "client %d connect failed: %s\n", c,
                     conn.status().ToString().c_str());
        failed_calls.fetch_add(requests);
        return;
      }
      RetryPolicy policy;
      policy.max_attempts = 12;
      policy.initial_backoff_ms = 10;
      policy.max_backoff_ms = 300;
      policy.reconnect = true;
      conn->set_retry_policy(policy);
      bool all_bitwise = true;
      for (int j = 0; j < requests; ++j) {
        const int dataset = (c + j) % num_datasets;
        WallTimer call_timer;
        const auto result = conn->Train(wire_train(dataset));
        const double seconds = call_timer.Seconds();
        if (!result.ok()) {
          std::fprintf(stderr, "train failed: %s\n",
                       result.status().ToString().c_str());
          failed_calls.fetch_add(1);
          continue;
        }
        latencies[static_cast<std::size_t>(c * requests + j)] = seconds;
        all_bitwise =
            all_bitwise &&
            TrainBitwise(*result,
                         references[static_cast<std::size_t>(dataset)]);
      }
      client_bitwise[static_cast<std::size_t>(c)] = all_bitwise ? 1 : 0;
      client_retries[static_cast<std::size_t>(c)] =
          conn->retry_stats().retries;
    });
  }

  // The scripted failure: SIGKILL the worker that owns dataset 0, 100 ms
  // into the burst, then measure kill -> first OK on one of its keys
  // with a NON-retrying prober (each attempt sees the raw kUnavailable
  // until restart + journal replay finish).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const int victim = router.OwnerShard(
      ShardKey{registrations[0].tenant, registrations[0].name});
  double convergence_ms = -1.0;
  std::uint64_t probe_attempts = 0;
  if (victim >= 0) {
    const pid_t victim_pid =
        router.supervisor().status(static_cast<std::uint32_t>(victim)).pid;
    WallTimer failover_timer;
    if (victim_pid > 0) ::kill(victim_pid, SIGKILL);
    auto prober = BlinkClient::ConnectUnix(options.unix_path);
    if (prober.ok()) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (std::chrono::steady_clock::now() < deadline) {
        ++probe_attempts;
        const auto result = prober->Train(wire_train(0));
        if (result.ok()) {
          convergence_ms = failover_timer.Seconds() * 1e3;
          if (!TrainBitwise(*result, references[0])) {
            std::fprintf(stderr, "post-failover train MISMATCH\n");
            failed_calls.fetch_add(1);
          }
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }

  for (auto& driver : drivers) driver.join();
  const double burst_seconds = burst_timer.Seconds();

  std::uint64_t total_retries = 0;
  bool bitwise_train = true;
  for (int c = 0; c < clients; ++c) {
    total_retries += client_retries[static_cast<std::size_t>(c)];
    bitwise_train =
        bitwise_train && client_bitwise[static_cast<std::size_t>(c)] != 0;
  }
  const auto stats = router.stats();
  const int ok_calls = total_requests - failed_calls.load();
  // Goodput counts only converged, bitwise-verified calls; the kill, the
  // dead window, and every retry are all inside the clock.
  const double goodput =
      burst_seconds > 0.0 ? ok_calls / burst_seconds : 0.0;
  const double p50_ms = Percentile(latencies, 50.0) * 1e3;
  const double p95_ms = Percentile(latencies, 95.0) * 1e3;
  const double p99_ms = Percentile(latencies, 99.0) * 1e3;
  router.Stop();

  std::printf("\ntrain burst: %d calls in %s  ->  goodput %.0f req/s\n",
              total_requests, HumanSeconds(burst_seconds).c_str(), goodput);
  std::printf("train latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
              p50_ms, p95_ms, p99_ms);
  std::printf(
      "scripted kill: shard %d  ->  failover converged in %.1f ms "
      "(%llu probe attempts)\n",
      victim, convergence_ms,
      static_cast<unsigned long long>(probe_attempts));
  std::printf(
      "router: %llu forwarded, %llu unavailable, %llu retries, "
      "%llu restarts, %llu registrations replayed\n",
      static_cast<unsigned long long>(stats.forwarded),
      static_cast<unsigned long long>(stats.unavailable),
      static_cast<unsigned long long>(total_retries),
      static_cast<unsigned long long>(stats.worker_restarts),
      static_cast<unsigned long long>(stats.replayed_registrations));
  std::printf("train round trips: %s (%d/%d converged)\n",
              bitwise_train ? "bitwise identical" : "MISMATCH", ok_calls,
              total_requests);

  const bool converged =
      bitwise_train && failed_calls.load() == 0 && convergence_ms >= 0.0;
  if (flags.json) {
    JsonObject root;
    root.Str("bench", "net")
        .Int("shards", shards)
        .Int("datasets", num_datasets)
        .Int("rows", registrations[0].rows)
        .Number("scale", scale)
        .Int("requests", total_requests)
        .Int("clients", clients)
        .Int("runner_threads", runner_threads)
        .Number("train_seconds", burst_seconds)
        .Number("goodput_qps", goodput)
        .Number("train_p50_ms", p50_ms)
        .Number("train_p95_ms", p95_ms)
        .Number("train_p99_ms", p99_ms)
        .Number("failover_convergence_ms", convergence_ms)
        .Int("failover_probe_attempts",
             static_cast<long long>(probe_attempts))
        .Int("killed_shard", victim)
        .Int("forwarded", static_cast<long long>(stats.forwarded))
        .Int("unavailable", static_cast<long long>(stats.unavailable))
        .Int("retries", static_cast<long long>(total_retries))
        .Int("worker_restarts",
             static_cast<long long>(stats.worker_restarts))
        .Int("replayed_registrations",
             static_cast<long long>(stats.replayed_registrations))
        .Bool("bitwise_train", bitwise_train)
        .Bool("converged", converged);
    if (!WriteBenchFile(flags.json_path, root.ToString())) return 1;
  }
  return converged ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace blinkml::bench;

  int requests = 64;
  int runner_threads = 2;
  int clients = 1;
  int shards = 0;
  const std::vector<ExtraIntFlag> extra = {
      {"requests", "Predict calls per client (default 64)", &requests},
      {"runner-threads", "server runner threads (default 2)",
       &runner_threads},
      {"clients", "concurrent client connections (default 1)", &clients},
      {"shards",
       "N > 0 = bench the supervised shard router (N workers) with a "
       "scripted worker kill instead of a bare server (default 0)",
       &shards},
  };
  const BenchFlags flags =
      ParseBenchFlags(argc, argv, "BENCH_net.json", extra);
  const double scale = ScaleFromEnv();

  if (shards > 0) {
    return RunShardedBench(shards, requests, runner_threads, clients, flags,
                           scale);
  }

  const RegisterDatasetRequest registration = MakeRegistration(scale);
  TrainRequestWire train;
  train.tenant = registration.tenant;
  train.dataset = registration.name;
  train.model_class = "LogisticRegression";
  train.l2 = 1e-3;
  train.epsilon = 0.05;
  train.delta = 0.05;

  PrintHeader("Networked serving under faults: BlinkServer over a Unix socket");
  std::printf("rows=%lld dim=%lld requests=%d clients=%d runner_threads=%d\n",
              static_cast<long long>(registration.rows),
              static_cast<long long>(registration.dim), requests, clients,
              runner_threads);

  // --- In-process reference (the bitwise target): same factory, same
  // config, same request against a bare SessionManager.
  SessionManager reference;
  {
    const Status st = reference.RegisterDataset(
        registration.name,
        [registration] { return std::move(*MakeWireDataset(registration)); },
        ToBlinkConfig(registration.config));
    if (!st.ok()) {
      std::fprintf(stderr, "reference register failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  TrainRequest reference_train;
  reference_train.dataset = registration.name;
  reference_train.spec = *MakeSpecByName(train.model_class, train.l2);
  reference_train.contract = {train.epsilon, train.delta};
  const auto reference_result = reference.Train(reference_train);
  if (!reference_result.ok()) {
    std::fprintf(stderr, "reference train failed: %s\n",
                 reference_result.status().ToString().c_str());
    return 1;
  }

  // Probe rows for Predict, lifted from the registered dataset itself so
  // client and server agree on the bytes.
  const Dataset probe_data = *MakeWireDataset(registration);
  const Dataset::Index probe_rows = 32;
  const auto dim = static_cast<Dataset::Index>(registration.dim);
  std::vector<double> probe(
      static_cast<std::size_t>(probe_rows * dim));
  for (Dataset::Index r = 0; r < probe_rows; ++r) {
    for (Dataset::Index c = 0; c < dim; ++c) {
      probe[static_cast<std::size_t>(r * dim + c)] = probe_data.dense()(r, c);
    }
  }
  Matrix probe_matrix(probe_rows, dim);
  std::memcpy(probe_matrix.data(), probe.data(),
              probe.size() * sizeof(double));
  const Dataset probe_set(std::move(probe_matrix), Vector(probe_rows),
                          Task::kBinary);
  Vector expected_predictions;
  (*MakeSpecByName(train.model_class, train.l2))
      ->Predict(reference_result->model.theta, probe_set,
                &expected_predictions);

  // --- The served run.
  SessionManager manager(ServeOptions{0, runner_threads});
  ServerOptions server_options;
  server_options.unix_path = SocketPath();
  server_options.runner_threads = runner_threads;
  BlinkServer server(&manager, server_options);
  {
    const Status st = server.Start();
    if (!st.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  auto client = BlinkClient::ConnectUnix(server_options.unix_path);
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }

  WallTimer register_timer;
  const auto registered = client->RegisterDataset(registration);
  const double register_seconds = register_timer.Seconds();
  if (!registered.ok()) {
    std::fprintf(stderr, "register failed: %s\n",
                 registered.status().ToString().c_str());
    return 1;
  }

  WallTimer train_timer;
  const auto trained = client->Train(train);
  const double train_seconds = train_timer.Seconds();
  if (!trained.ok()) {
    std::fprintf(stderr, "train failed: %s\n",
                 trained.status().ToString().c_str());
    return 1;
  }
  const bool bitwise_train =
      ModelsBitwiseEqual(trained->model, reference_result->model) &&
      trained->final_epsilon == reference_result->final_epsilon &&
      trained->sample_size == reference_result->sample_size;

  // --- Predict burst: `clients` connections, `requests` blocking calls
  // each, every per-call latency recorded. The served model ships back
  // verbatim in each request.
  PredictRequestWire predict;
  predict.tenant = registration.tenant;
  predict.model_class = train.model_class;
  predict.model = trained->model;
  predict.rows = probe_rows;
  predict.dim = dim;
  predict.features = probe;

  const int total_requests = requests * clients;
  std::vector<double> latencies(static_cast<std::size_t>(total_requests),
                                0.0);
  // char, not bool: vector<bool> packs bits and concurrent writes to
  // neighboring elements would race.
  std::vector<char> client_bitwise(static_cast<std::size_t>(clients), 0);
  std::vector<std::uint64_t> client_retries(
      static_cast<std::size_t>(clients), 0);
  std::vector<std::uint64_t> client_reconnects(
      static_cast<std::size_t>(clients), 0);
  fail::Failpoints::Global().DisarmAll();
  const Status armed = fail::Failpoints::Global().ArmFromSpec(
      "net.write_frame=err@every:9;queue.enqueue=err@every:13");
  if (!armed.ok()) {
    std::fprintf(stderr, "arming faults failed: %s\n",
                 armed.ToString().c_str());
    return 1;
  }
  WallTimer burst_timer;
  {
    std::vector<std::thread> drivers;
    for (int c = 0; c < clients; ++c) {
      drivers.emplace_back([&, c] {
        auto conn = BlinkClient::ConnectUnix(server_options.unix_path);
        if (!conn.ok()) {
          std::fprintf(stderr, "client %d connect failed: %s\n", c,
                       conn.status().ToString().c_str());
          return;
        }
        RetryPolicy policy;
        policy.max_attempts = 6;
        policy.initial_backoff_ms = 1;
        policy.reconnect = true;
        conn->set_retry_policy(policy);
        bool all_bitwise = true;
        for (int j = 0; j < requests; ++j) {
          WallTimer call_timer;
          const auto predicted = conn->Predict(predict);
          const double seconds = call_timer.Seconds();
          if (!predicted.ok()) {
            std::fprintf(stderr, "predict failed: %s\n",
                         predicted.status().ToString().c_str());
            return;
          }
          latencies[static_cast<std::size_t>(c * requests + j)] = seconds;
          if (predicted->predictions.size() !=
              static_cast<std::size_t>(expected_predictions.size())) {
            all_bitwise = false;
            continue;
          }
          for (Vector::Index i = 0; i < expected_predictions.size(); ++i) {
            all_bitwise =
                all_bitwise &&
                predicted->predictions[static_cast<std::size_t>(i)] ==
                    expected_predictions[i];
          }
        }
        client_bitwise[static_cast<std::size_t>(c)] = all_bitwise ? 1 : 0;
        client_retries[static_cast<std::size_t>(c)] =
            conn->retry_stats().retries;
        client_reconnects[static_cast<std::size_t>(c)] =
            conn->retry_stats().reconnects;
      });
    }
    for (auto& driver : drivers) driver.join();
  }
  const double burst_seconds = burst_timer.Seconds();
  const std::uint64_t faults_injected =
      fail::Failpoints::Global().TotalFires();
  fail::Failpoints::Global().DisarmAll();
  std::uint64_t total_retries = 0;
  std::uint64_t total_reconnects = 0;
  for (int c = 0; c < clients; ++c) {
    total_retries += client_retries[static_cast<std::size_t>(c)];
    total_reconnects += client_reconnects[static_cast<std::size_t>(c)];
  }
  bool bitwise_predict = true;
  for (int c = 0; c < clients; ++c) {
    bitwise_predict = bitwise_predict &&
                      client_bitwise[static_cast<std::size_t>(c)] != 0;
  }
  for (double seconds : latencies) {
    bitwise_predict = bitwise_predict && seconds > 0.0;  // every call ran
  }

  const double p50_ms = Percentile(latencies, 50.0) * 1e3;
  const double p95_ms = Percentile(latencies, 95.0) * 1e3;
  const double p99_ms = Percentile(latencies, 99.0) * 1e3;
  const double qps =
      burst_seconds > 0.0 ? total_requests / burst_seconds : 0.0;

  const auto server_stats = server.stats();
  const auto stats = client->Stats(registration.tenant);
  server.Stop();

  std::printf("\nregister: %s   train: %s\n",
              HumanSeconds(register_seconds).c_str(),
              HumanSeconds(train_seconds).c_str());
  std::printf("predict burst: %d calls in %s  ->  %.0f req/s\n",
              total_requests, HumanSeconds(burst_seconds).c_str(), qps);
  std::printf("predict latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
              p50_ms, p95_ms, p99_ms);
  // The qps above IS goodput: only bitwise-verified successes are
  // counted, faults and retries included in the clock.
  std::printf(
      "faults: %llu injected, %llu retries, %llu reconnects  ->  "
      "goodput %.0f req/s\n",
      static_cast<unsigned long long>(faults_injected),
      static_cast<unsigned long long>(total_retries),
      static_cast<unsigned long long>(total_reconnects), qps);
  std::printf("train round trip:   %s\n",
              bitwise_train ? "bitwise identical" : "MISMATCH");
  std::printf("predict round trip: %s\n",
              bitwise_predict ? "bitwise identical" : "MISMATCH");
  std::printf("server: %llu frames in, %llu responses, %llu jobs enqueued\n",
              static_cast<unsigned long long>(server_stats.frames_received),
              static_cast<unsigned long long>(server_stats.responses_sent),
              static_cast<unsigned long long>(server_stats.jobs_enqueued));
  if (stats.ok()) {
    std::printf("manager: %llu jobs, %d live sessions, %llu cached bytes\n",
                static_cast<unsigned long long>(stats->manager.jobs_submitted),
                static_cast<int>(stats->manager.live_sessions),
                static_cast<unsigned long long>(stats->manager.cached_bytes));
  }

  if (flags.json) {
    JsonObject root;
    root.Str("bench", "net")
        .Int("rows", registration.rows)
        .Int("dim", registration.dim)
        .Number("scale", scale)
        .Int("requests", total_requests)
        .Int("clients", clients)
        .Int("runner_threads", runner_threads)
        .Number("register_seconds", register_seconds)
        .Number("train_seconds", train_seconds)
        .Number("predict_seconds", burst_seconds)
        .Number("predict_p50_ms", p50_ms)
        .Number("predict_p95_ms", p95_ms)
        .Number("predict_p99_ms", p99_ms)
        .Int("frames_received",
             static_cast<long long>(server_stats.frames_received))
        .Int("responses_sent",
             static_cast<long long>(server_stats.responses_sent))
        .Bool("bitwise_train", bitwise_train)
        .Bool("bitwise_predict", bitwise_predict)
        .Int("faults_injected", static_cast<long long>(faults_injected))
        .Int("retries", static_cast<long long>(total_retries))
        .Int("reconnects", static_cast<long long>(total_reconnects))
        .Number("goodput_qps", qps);
    if (!WriteBenchFile(flags.json_path, root.ToString())) return 1;
  }
  return (bitwise_train && bitwise_predict) ? 0 : 1;
}
