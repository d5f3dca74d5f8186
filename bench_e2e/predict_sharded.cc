// predict-sharded: a ShardRouter (in this process) in front of two
// example_serve_daemon workers with one pool lane each, fed by one client
// connection that reconnects after a seeded number of requests. main()
// pins the process, and so the workers it spawns, to one CPU.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bench.h"
#include "net/client.h"
#include "net/codec.h"
#include "shard/router.h"

namespace bench {
namespace {

using namespace blinkml;
using namespace blinkml::net;
using namespace blinkml::shard;

constexpr int kTenants = 8;
// One closed-loop connection: exactly one thread of the client -> router
// -> worker chain is runnable at a time (see NOTES.md).
constexpr int kClients = 1;
constexpr std::int64_t kDim = 100;
constexpr std::int64_t kBlockRows = 4096;
constexpr int kMaxRows = 512;
constexpr double kMeanRequestsPerConnection = 32.0;
const char* const kModelClass = "LogisticRegression";

std::string TenantName(int t) { return "tenant-" + std::to_string(t); }

/// One Predict of the seeded sequence: rows [offset, offset + rows) of the
/// shared feature block, for one tenant.
struct PredictCase {
  int tenant = 0;
  std::int64_t rows = 0;
  std::int64_t offset = 0;
  /// Requests left on this connection after this one (0 = reconnect).
  int left_on_connection = 0;
};

/// A client's request sequence, a pure function of (seed, client).
class ClientStream {
 public:
  ClientStream(std::uint64_t seed, int client)
      : rng_(seed * 0x9E3779B97F4A7C15ull +
             static_cast<std::uint64_t>(client)) {
    left_ = rng_.Geometric(kMeanRequestsPerConnection);
  }
  PredictCase Next() {
    PredictCase c;
    c.tenant = static_cast<int>(rng_.Next() % kTenants);
    c.rows = std::min<std::int64_t>(
        kMaxRows,
        static_cast<std::int64_t>(rng_.LogUniform(1.0, kMaxRows + 1.0)));
    c.offset = static_cast<std::int64_t>(
        rng_.Next() % static_cast<std::uint64_t>(kBlockRows - c.rows + 1));
    c.left_on_connection = --left_;
    if (left_ == 0) left_ = rng_.Geometric(kMeanRequestsPerConnection);
    return c;
  }

 private:
  SeqRng rng_;
  int left_ = 0;
};

struct Fleet {
  std::unique_ptr<ShardRouter> router;
  RouterOptions options;
  TrainResponseWire model;
};

RegisterDatasetRequest ModelDataset(bool smoke) {
  RegisterDatasetRequest r;
  r.tenant = TenantName(0);
  r.name = "predict-model";
  r.generator = WireGenerator::kSyntheticLogistic;
  r.rows = smoke ? 5'000 : 20'000;
  r.dim = kDim;
  r.data_seed = 3;
  r.config.initial_sample_size = smoke ? 1'000 : 2'000;
  r.config.holdout_size = 1'000;
  r.config.stats_sample_size = 256;
  r.config.accuracy_samples = 128;
  r.config.size_samples = 64;
  return r;
}

PredictRequestWire MakeRequest(const PredictCase& c, const Vector& theta,
                               const std::vector<double>& block) {
  PredictRequestWire req;
  req.tenant = TenantName(c.tenant);
  req.model_class = kModelClass;
  req.model.theta = theta;
  req.rows = c.rows;
  req.dim = kDim;
  const double* begin = block.data() + c.offset * kDim;
  req.features.assign(begin, begin + c.rows * kDim);
  return req;
}

std::uint64_t DigestOf(const PredictResponseWire& r) {
  WireWriter w;
  Encode(r, &w);
  return Digest(w);
}

/// The reference answer: ModelSpec::Predict in this process.
std::uint64_t ReferenceDigest(const ModelSpec& spec,
                              const PredictRequestWire& req) {
  Matrix features(req.rows, req.dim);
  std::memcpy(features.data(), req.features.data(),
              req.features.size() * sizeof(double));
  const Dataset data(std::move(features), Vector(req.rows),
                     Task::kBinary);
  Vector predictions;
  spec.Predict(req.model.theta, data, &predictions);
  PredictResponseWire response;
  response.predictions.assign(predictions.data(),
                              predictions.data() + predictions.size());
  return DigestOf(response);
}

/// What one client connection measured.
struct ClientLog {
  std::vector<PredictCase> cases;
  std::vector<std::uint64_t> digests;
  std::vector<double> latency_s;
  std::vector<double> connect_s;
  std::vector<double> direct_s;
  std::vector<double> codec_s;
  std::vector<double> predict_s;
  std::vector<std::string> errors;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  SpanLog spans;
};

/// Summed peak RSS of this process (the router) and the workers.
double FleetPeakRssMb(const Fleet& fleet) {
  double mb = PeakRssMb(::getpid());
  for (const WorkerStatus& w : fleet.router->supervisor().AllStatus()) {
    mb += PeakRssMb(w.pid);
  }
  return mb;
}

/// Reads FleetPeakRssMb once, when the clients together have completed
/// `at` requests: memory per unit of work, not per second (the router's
/// per-connection residue grows with requests served).
struct RssProbe {
  std::int64_t at = 0;
  std::atomic<std::int64_t> done{0};
  std::atomic<double> mb{0.0};
};

Result<BlinkClient> Connect(const std::string& path) {
  return BlinkClient::ConnectUnixRetry(path, 50, 20);
}

/// One closed-loop client over requests skip, skip + 1, ... of its
/// sequence. It stops at `deadline_ns` and after `count` requests, each
/// when non-zero. Traced, each request also gets spans, a direct call to
/// the owning worker, the codec and the in-process Predict.
void RunClient(int client_id, std::uint64_t seed, const Fleet& fleet,
               const std::vector<double>& block, const ModelSpec& spec,
               std::int64_t deadline_ns, std::size_t count, bool traced,
               std::size_t skip, RssProbe* probe, ClientLog* log) {
  log->spans = SpanLog(client_id);
  ClientStream stream(seed, client_id);
  for (std::size_t i = 0; i < skip; ++i) stream.Next();
  std::optional<BlinkClient> client;
  std::optional<BlinkClient> direct[2];
  auto connect = [&]() -> bool {
    client.reset();
    const std::int64_t t0 = NowNs();
    Result<BlinkClient> c = Connect(fleet.options.unix_path);
    if (!c.ok()) {
      log->errors.push_back("connect: " + c.status().ToString());
      return false;
    }
    log->connect_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    client.emplace(std::move(c).value());
    return true;
  };
  if (!connect()) return;
  for (std::size_t i = 0;; ++i) {
    if ((deadline_ns > 0 && NowNs() >= deadline_ns) ||
        (count > 0 && i >= count)) {
      break;
    }
    const PredictCase c = stream.Next();
    const PredictRequestWire req =
        MakeRequest(c, fleet.model.model.theta, block);
    const std::uint64_t rid = skip + i;
    ++log->attempted;
    log->cases.push_back(c);
    std::optional<ScopedSpan> rpc_span;
    if (traced) rpc_span.emplace(&log->spans, "shard.rpc", rid);
    const std::int64_t t0 = NowNs();
    Result<PredictResponseWire> r = client->Predict(req);
    const double seconds = static_cast<double>(NowNs() - t0) * 1e-9;
    if (rpc_span) rpc_span->Close();
    if (!r.ok()) {
      ++log->failed;
      log->digests.push_back(0);
      log->errors.push_back("predict " + std::to_string(rid) + ": " +
                            r.status().ToString());
    } else {
      log->latency_s.push_back(seconds);
      log->digests.push_back(DigestOf(*r));
      if (probe != nullptr && probe->done.fetch_add(1) + 1 == probe->at) {
        probe->mb = FleetPeakRssMb(fleet);
      }
    }
    if (traced) {
      const int owner = fleet.router->OwnerShard(ShardKey{req.tenant, ""});
      if (owner < 0 || owner > 1) {
        log->errors.push_back("no owner shard for " + req.tenant);
        return;
      }
      std::optional<BlinkClient>& d = direct[owner];
      if (!d) {
        const std::string path =
            fleet.router->supervisor()
                .status(static_cast<std::uint32_t>(owner))
                .socket_path;
        Result<BlinkClient> dc = Connect(path);
        if (dc.ok()) d.emplace(std::move(dc).value());
      }
      if (d) {
        ScopedSpan span(&log->spans, "net.rpc_direct", rid);
        Result<PredictResponseWire> dr = d->Predict(req);
        log->direct_s.push_back(span.Close());
        if (!dr.ok() || DigestOf(*dr) != log->digests.back()) {
          log->errors.push_back("predict " + std::to_string(rid) +
                                ": direct worker answer differs");
        }
      }
      {
        ScopedSpan span(&log->spans, "net.codec", rid);
        bool ok = RoundTrip(req);
        if (r.ok()) ok = ok && RoundTrip(*r);
        if (!ok) {
          log->errors.push_back("predict " + std::to_string(rid) +
                                ": codec round trip failed");
        }
        log->codec_s.push_back(span.Close());
      }
      {
        ScopedSpan span(&log->spans, "models.predict", rid);
        (void)ReferenceDigest(spec, req);
        log->predict_s.push_back(span.Close());
      }
    }
    if (c.left_on_connection == 0) {
      std::optional<ScopedSpan> span;
      if (traced) span.emplace(&log->spans, "shard.connect", rid);
      if (!connect()) return;
    }
  }
}

/// Runs RunClient for every client, one thread each, and returns the logs.
/// `counts[c]` caps client c's requests (0 = no cap).
std::vector<ClientLog> RunClients(std::uint64_t seed, const Fleet& fleet,
                                  const std::vector<double>& block,
                                  const ModelSpec& spec,
                                  std::int64_t deadline_ns,
                                  const std::vector<std::size_t>& counts,
                                  bool traced, std::size_t skip,
                                  RssProbe* probe = nullptr) {
  std::vector<ClientLog> logs(kClients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < logs.size(); ++c) {
    threads.emplace_back([&, c] {
      RunClient(static_cast<int>(c), seed, fleet, block, spec, deadline_ns,
                counts[c], traced, skip, probe, &logs[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  return logs;
}

Status StartFleet(bool smoke, Fleet* fleet) {
  RouterOptions& options = fleet->options;
  const std::string tag = std::to_string(::getpid());
  options.unix_path = OutDir() + "/router-" + tag + ".sock";
  options.num_shards = 2;
  options.worker.socket_dir = OutDir();
  options.worker.socket_prefix = "shard-" + tag;
  options.worker.runner_threads = 1;
  fleet->router = std::make_unique<ShardRouter>(options);
  BLINKML_RETURN_NOT_OK(fleet->router->Start());
  BLINKML_ASSIGN_OR_RETURN(BlinkClient client, Connect(options.unix_path));
  const RegisterDatasetRequest reg = ModelDataset(smoke);
  BLINKML_RETURN_NOT_OK(client.RegisterDataset(reg).status());
  TrainRequestWire train;
  train.tenant = reg.tenant;
  train.dataset = reg.name;
  train.model_class = kModelClass;
  train.l2 = 1e-3;
  train.epsilon = 0.05;
  train.delta = 0.05;
  BLINKML_ASSIGN_OR_RETURN(fleet->model, client.Train(train));
  // One Predict per tenant: every worker has served before timing.
  std::vector<double> features(kDim, 0.5);
  for (int t = 0; t < kTenants; ++t) {
    PredictRequestWire req;
    req.tenant = TenantName(t);
    req.model_class = kModelClass;
    req.model.theta = fleet->model.model.theta;
    req.rows = 1;
    req.dim = kDim;
    req.features = features;
    BLINKML_RETURN_NOT_OK(client.Predict(req).status());
  }
  return Status::OK();
}

}  // namespace

Outcome RunPredictSharded(const Options& opt) {
  Outcome out;
  out.pool_lanes = 1;  // per worker
  out.connections = kClients;
  const int bringups = opt.smoke ? 1 : 5;

  // --- Setup: bring-ups (median) + warm-up. ---
  Fleet fleet;
  std::vector<double> bringup_s;
  for (int k = 0; k < bringups; ++k) {
    if (fleet.router) fleet.router->Stop();
    fleet = Fleet();
    const std::int64_t t0 = NowNs();
    const Status st = StartFleet(opt.smoke, &fleet);
    if (!st.ok()) {
      out.Fail("setup: " + st.ToString());
      return out;
    }
    bringup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  bool shard_used[2] = {false, false};
  for (int t = 0; t < kTenants; ++t) {
    const int owner = fleet.router->OwnerShard(ShardKey{TenantName(t), ""});
    if (owner == 0 || owner == 1) shard_used[owner] = true;
  }
  if (!shard_used[0] || !shard_used[1]) {
    out.Fail("the tenants do not cover both shards");
    return out;
  }

  std::vector<double> block(static_cast<std::size_t>(kBlockRows * kDim));
  {
    SeqRng rng(opt.seed);
    for (double& x : block) x = 2.0 * rng.Uniform() - 1.0;
  }
  Result<std::shared_ptr<ModelSpec>> spec = MakeSpecByName(kModelClass, 1e-3);
  if (!spec.ok()) {
    out.Fail(spec.status().ToString());
    return out;
  }
  // Warm-up: each client runs its first requests untimed.
  const std::size_t warmup = opt.smoke ? 16 : 256;
  const std::int64_t warm0 = NowNs();
  const std::vector<ClientLog> warm =
      RunClients(opt.seed, fleet, block, **spec, 0,
                 std::vector<std::size_t>(kClients, warmup), false, 0);
  const double setup_s =
      Median(bringup_s) + static_cast<double>(NowNs() - warm0) * 1e-9;
  for (const ClientLog& w : warm) {
    for (const std::string& e : w.errors) out.Fail("warm-up: " + e);
  }

  // --- Timed closed loop. ---
  const RouterStatsSnapshot before = fleet.router->stats();
  const double rss_before_kb = RssKb(::getpid());
  RssProbe probe;
  probe.at = opt.smoke ? 1'000 : 40'000;
  const CpuTimes cpu_start = ReadCpuTimes();
  const std::int64_t start = NowNs();
  const std::vector<ClientLog> timed = RunClients(
      opt.seed, fleet, block, **spec,
      start + static_cast<std::int64_t>(opt.seconds * 1e9),
      std::vector<std::size_t>(kClients, 0), false, warmup, &probe);
  const double wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  out.steal_share = StealShare(cpu_start, ReadCpuTimes());
  const RouterStatsSnapshot after = fleet.router->stats();
  double connections = 0.0;
  std::vector<double> latencies_ms;
  for (const ClientLog& log : timed) {
    out.attempted += log.attempted;
    out.failed += log.failed;
    connections += static_cast<double>(log.connect_s.size());
    for (const double s : log.latency_s) latencies_ms.push_back(s * 1e3);
    for (const std::string& e : log.errors) out.Fail(e);
  }
  const double rss_per_conn_kb =
      (RssKb(::getpid()) - rss_before_kb) / std::max(connections, 1.0);
  const double peak_rss_mb =
      probe.mb > 0.0 ? probe.mb.load() : FleetPeakRssMb(fleet);

  // Every Predict against ModelSpec::Predict in this process.
  std::int64_t ok_and_checked = 0;
  for (const ClientLog& log : timed) {
    for (std::size_t i = 0; i < log.cases.size(); ++i) {
      if (log.digests[i] == 0) continue;
      std::uint64_t reference = ReferenceDigest(
          **spec, MakeRequest(log.cases[i], fleet.model.model.theta, block));
      if (opt.corrupt_reference) reference ^= 1;
      if (reference == log.digests[i]) {
        ++ok_and_checked;
      } else {
        out.Fail("predict response differs from ModelSpec::Predict");
      }
    }
  }

  // Rejections summed over the workers (Stats through the router).
  std::uint64_t rejected = 0;
  {
    Result<BlinkClient> client = Connect(fleet.options.unix_path);
    Result<StatsResponseWire> stats =
        client.ok() ? client->Stats(TenantName(0))
                    : Result<StatsResponseWire>(client.status());
    if (!stats.ok()) {
      out.Fail("stats: " + stats.status().ToString());
    } else {
      rejected = RejectedTotal(stats->server);
    }
  }
  if (rejected != 0) {
    out.Fail("workers rejected " + std::to_string(rejected) + " frames");
  }
  if (after.unavailable != before.unavailable) {
    out.Fail("router answered kUnavailable");
  }

  const TrainResponseWire& m = fleet.model;
  AddEndToEnd(&out, setup_s,
              static_cast<double>(latencies_ms.size()) / wall_s,
              latencies_ms, 90.0, ok_and_checked, peak_rss_mb,
              static_cast<double>(m.sample_size) /
                  static_cast<double>(m.full_size),
              m.contract_satisfied ? 1.0 : 0.0);

  if (opt.trace) {
    // --- Traced run: the timed sequence again from its start, for at
    // most the run length. ---
    std::vector<std::size_t> counts;
    for (const ClientLog& log : timed) counts.push_back(log.cases.size());
    const std::vector<ClientLog> traced = RunClients(
        opt.seed, fleet, block, **spec,
        NowNs() + static_cast<std::int64_t>(opt.seconds * 1e9), counts,
        true, warmup);
    std::vector<double> rpc_s, direct_s, connect_s, codec_s, predict_s;
    SpanLog spans;
    for (int c = 0; c < kClients; ++c) {
      const ClientLog& t = traced[static_cast<std::size_t>(c)];
      const ClientLog& d = timed[static_cast<std::size_t>(c)];
      for (const std::string& e : t.errors) out.Fail("traced " + e);
      for (std::size_t i = 0; i < t.digests.size() && i < d.digests.size();
           ++i) {
        if (t.digests[i] != d.digests[i]) {
          out.Fail("traced predict response differs from the timed one");
        }
      }
      rpc_s.insert(rpc_s.end(), t.latency_s.begin(), t.latency_s.end());
      direct_s.insert(direct_s.end(), t.direct_s.begin(), t.direct_s.end());
      connect_s.insert(connect_s.end(), t.connect_s.begin(),
                       t.connect_s.end());
      codec_s.insert(codec_s.end(), t.codec_s.begin(), t.codec_s.end());
      predict_s.insert(predict_s.end(), t.predict_s.begin(),
                       t.predict_s.end());
      spans.Append(t.spans);
    }
    const double rpc_sum = Sum(rpc_s);
    auto& L = out.per_layer;
    out.Add(&L, "shard.rpc_us", "us", Median(rpc_s) * 1e6);
    out.Add(&L, "net.rpc_direct_us", "us", Median(direct_s) * 1e6);
    out.Add(&L, "shard.hop_us", "us",
            (Median(rpc_s) - Median(direct_s)) * 1e6);
    out.Add(&L, "shard.hop_us.share", "ratio",
            rpc_sum > 0 ? (rpc_sum - Sum(direct_s)) / rpc_sum : 0.0);
    out.Add(&L, "shard.connect_us", "us", Median(connect_s) * 1e6);
    out.Add(&L, "shard.rss_kb_per_conn", "KB", rss_per_conn_kb);
    out.Add(&L, "shard.forwarded", "count",
            static_cast<double>(after.forwarded - before.forwarded));
    out.Add(&L, "shard.unavailable", "count",
            static_cast<double>(after.unavailable - before.unavailable));
    out.Add(&L, "net.rejected_total", "count", static_cast<double>(rejected));
    out.Add(&L, "net.codec_us", "us", Median(codec_s) * 1e6);
    out.Add(&L, "net.codec_us.share", "ratio",
            rpc_sum > 0 ? Sum(codec_s) / rpc_sum : 0.0);
    out.Add(&L, "models.predict_us", "us", Median(predict_s) * 1e6);
    out.Add(&L, "models.predict_us.share", "ratio",
            rpc_sum > 0 ? Sum(predict_s) / rpc_sum : 0.0);
    out.Add(&L, "net.overhead_ms", "ms",
            (Median(rpc_s) - Median(predict_s)) * 1e3);
    out.Add(&L, "net.overhead_ms.share", "ratio",
            rpc_sum > 0 ? (rpc_sum - Sum(predict_s)) / rpc_sum : 0.0);
    out.Add(&L, "net.rpc_ms", "ms", Median(rpc_s) * 1e3);
    out.Add(&L, "trace.overhead_ms", "ms",
            Median(rpc_s) * 1e3 - Median(latencies_ms));
    const Status written = spans.WriteChromeTrace(
        OutDir() + "/predict-sharded-seed" + std::to_string(opt.seed) +
        ".trace.json");
    if (!written.ok()) out.Fail(written.ToString());
  }
  fleet.router->Stop();
  return out;
}

}  // namespace bench
