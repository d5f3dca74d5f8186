// train-dense and search-sparse: one client connection to an in-process
// BlinkServer on a Unix socket, replayed (traced run) or spot-checked
// (timed run) against an in-process reference TrainingSession with the
// same config.

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "bench.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "runtime/thread_pool.h"
#include "serve/session_manager.h"
#include "session/hyperparam_search.h"
#include "session/training_session.h"

namespace bench {
namespace {

using namespace blinkml;
using namespace blinkml::net;

enum class Kind { kTrain, kSearch };

struct Setup {
  RegisterDatasetRequest registration;
  /// Requests sent before timing (counted in setup_s).
  int warmup = 0;
  /// Server bring-ups per run; setup_s takes their median.
  int bringups = 3;
  double tail_percentile = 90.0;
  /// peak_rss_mb is read after this many timed requests (or at the end of
  /// a shorter run), so it measures memory per unit of work, not per
  /// second of a faster or slower system.
  std::int64_t rss_after = 0;
  int candidates = 8;
  /// Points of the shuffled l2 grid: per epsilon for trains, grid offsets
  /// shared by a search's candidates for searches.
  int grid_points = 0;
  /// Requests in one whole cycle of the mix: one block of every grid. The
  /// timed metrics read whole cycles only.
  std::size_t cycle = 0;
  /// Whole cycles that sample_fraction_mean and contract_met_ratio read:
  /// a fixed set of models, so they do not move with the system's speed.
  std::size_t audit_cycles = 1;
};

Setup TrainDenseSetup(bool smoke) {
  Setup s;
  RegisterDatasetRequest& r = s.registration;
  r.tenant = "bench";
  r.name = "train-dense";
  r.generator = WireGenerator::kSyntheticLogistic;
  r.rows = smoke ? 20'000 : 200'000;
  r.dim = smoke ? 20 : 100;
  r.data_seed = 1;
  if (smoke) {
    r.config.initial_sample_size = 2'000;
    r.config.holdout_size = 1'000;
    r.config.stats_sample_size = 256;
    r.config.accuracy_samples = 128;
    r.config.size_samples = 64;
  }
  // The session's SampleCache retains final samples until it holds 4 N
  // rows (~18 requests at n/N ~ 0.22); timing starts after it is full.
  s.warmup = smoke ? 2 : 24;
  s.bringups = smoke ? 1 : 3;
  s.tail_percentile = 75.0;
  s.rss_after = smoke ? 5 : 50;
  s.grid_points = 4;
  s.cycle = 3 * s.grid_points;  // x 3 epsilons
  s.audit_cycles = 4;
  return s;
}

Setup SearchSparseSetup(bool smoke) {
  Setup s;
  RegisterDatasetRequest& r = s.registration;
  r.tenant = "bench";
  r.name = "search-sparse";
  r.generator = WireGenerator::kCriteoLike;
  r.rows = smoke ? 20'000 : 200'000;
  r.dim = smoke ? 2'000 : 20'000;
  r.nnz_per_row = smoke ? 10 : 39;
  r.data_seed = 1;
  r.config.initial_sample_size = smoke ? 1'000 : 8'000;
  r.config.holdout_size = smoke ? 500 : 2'000;
  r.config.stats_sample_size = smoke ? 64 : 256;
  r.config.accuracy_samples = smoke ? 64 : 256;
  r.config.size_samples = smoke ? 32 : 128;
  // The first search computes the prefix and the initial feature Gram;
  // later searches reuse both.
  s.warmup = 2;
  s.bringups = smoke ? 1 : 3;
  s.tail_percentile = 75.0;
  s.rss_after = 4;
  s.grid_points = 2;
  s.cycle = s.grid_points;
  s.audit_cycles = 2;
  return s;
}

/// The seeded request sequence, generated in order and kept for replay.
class Requests {
 public:
  Requests(Kind kind, const Setup& setup, std::uint64_t seed)
      : kind_(kind), setup_(setup), rng_(seed) {
    for (int e = 0; e < (kind == Kind::kTrain ? 3 : 1); ++e) {
      l2_draws_.emplace_back(&rng_, setup.grid_points);
    }
  }
  // l2_draws_ point at rng_.
  Requests(const Requests&) = delete;
  Requests& operator=(const Requests&) = delete;

  const TrainRequestWire& Train(std::size_t i) {
    Extend(i);
    return trains_[i];
  }
  const SearchRequestWire& Search(std::size_t i) {
    Extend(i);
    return searches_[i];
  }

 private:
  void Extend(std::size_t i) {
    while (size() <= i) {
      const std::size_t n = size();
      // The timed requests start a fresh block of every grid, so each of
      // their whole cycles holds one whole block.
      if (n == static_cast<std::size_t>(setup_.warmup)) {
        for (ShuffledGrid& grid : l2_draws_) grid.StartBlock();
      }
      if (kind_ == Kind::kTrain) {
        TrainRequestWire t;
        t.tenant = setup_.registration.tenant;
        t.dataset = setup_.registration.name;
        t.model_class = "LogisticRegression";
        static const double kEpsilons[] = {0.03, 0.04, 0.05};
        t.epsilon = kEpsilons[n % 3];
        t.l2 = LogScale(1e-4, 1e-2, l2_draws_[n % 3].Next());
        t.delta = 0.05;
        t.seed = 0;  // the dataset's seed: one shared session
        trains_.push_back(std::move(t));
      } else {
        SearchRequestWire s;
        s.tenant = setup_.registration.tenant;
        s.dataset = setup_.registration.name;
        s.model_class = "LogisticRegression";
        // A shifted log-grid: candidate c sits at the same offset inside
        // the c-th of `candidates` equal log-slices of [1e-4, 1e-1]. Every
        // search holds the same mix of weakly regularized candidates (the
        // ones that need a final train), and each cycle of searches spreads
        // its offsets evenly, so per-search cost does not swing with the
        // draw.
        const double u = l2_draws_[0].Next();
        for (int c = 0; c < setup_.candidates; ++c) {
          SearchCandidateWire candidate;
          candidate.l2 = LogScale(1e-4, 1e-1, (c + u) / setup_.candidates);
          candidate.seed = 0;  // shared D_0
          s.candidates.push_back(candidate);
        }
        s.epsilon = 0.05;
        s.delta = 0.05;
        s.seed = 0;
        searches_.push_back(std::move(s));
      }
    }
  }
  std::size_t size() const {
    return kind_ == Kind::kTrain ? trains_.size() : searches_.size();
  }

  Kind kind_;
  const Setup& setup_;
  SeqRng rng_;
  /// l2 positions: for trains one grid per epsilon, for searches one
  /// offset grid shared by the candidates of a request.
  std::vector<ShuffledGrid> l2_draws_;
  std::vector<TrainRequestWire> trains_;
  std::vector<SearchRequestWire> searches_;
};

/// What the checks need from one response, wire or replayed.
struct Reply {
  /// The encoded response body and its digest.
  std::vector<std::uint8_t> bytes;
  std::uint64_t digest = 0;
  std::vector<double> sample_fractions;
  int models = 0;
  int contract_met = 0;
  /// Non-empty when the response breaks the workload's regime.
  std::string regime_error;
};

Reply FromTrain(const TrainResponseWire& r) {
  Reply reply;
  WireWriter w;
  if (!Encode(r, &w).ok()) reply.regime_error = "response does not encode";
  reply.digest = Digest(w);
  reply.bytes = w.Take();
  reply.models = 1;
  reply.contract_met = r.contract_satisfied ? 1 : 0;
  reply.sample_fractions.push_back(static_cast<double>(r.sample_size) /
                                   static_cast<double>(r.full_size));
  if (r.used_initial_only || r.final_iterations <= 0) {
    reply.regime_error = "returned the initial model: size estimation and "
                         "final train did not run";
  }
  return reply;
}

Reply FromSearch(const SearchResponseWire& r, double epsilon,
                 std::int64_t full_n) {
  Reply reply;
  WireWriter w;
  if (!Encode(r, &w).ok()) reply.regime_error = "response does not encode";
  reply.digest = Digest(w);
  reply.bytes = w.Take();
  for (const SearchCandidateResultWire& c : r.candidates) {
    if (c.status != WireStatus::kOk) {
      reply.regime_error = "candidate failed: " + c.message;
      continue;
    }
    ++reply.models;
    reply.contract_met += c.final_epsilon <= epsilon ? 1 : 0;
    reply.sample_fractions.push_back(static_cast<double>(c.sample_size) /
                                     static_cast<double>(full_n));
  }
  if (r.best_index < 0) reply.regime_error = "no best candidate";
  return reply;
}

/// Per-request accounting of a replay on the reference session.
struct ReplayCost {
  PhaseTimings phases;  // summed over candidates for a search
  double make_pipeline_s = 0.0;
  double search_s = 0.0;
  /// Replay stage spans summed: the in-process cost of the request.
  double stage_sum_s = 0.0;
  int models = 0;
  int initial_only = 0;
  double initial_iterations = 0.0;
  double final_iterations = 0.0;
  double size_evaluations = 0.0;
  double candidate_s_sum = 0.0;
  double candidate_s_max = 0.0;
  int batched_score_groups = 0;
};

/// The wire response the server builds from the same ApproxResult
/// (BlinkServer::RunTrain).
TrainResponseWire TrainWireOf(const std::string& model_class,
                              const ApproxResult& result) {
  TrainResponseWire w;
  w.model_class = model_class;
  w.model = result.model;
  w.sample_size = result.sample_size;
  w.full_size = result.full_size;
  w.initial_epsilon = result.initial_epsilon;
  w.final_epsilon = result.final_epsilon;
  w.used_initial_only = result.used_initial_only;
  w.contract_satisfied = result.contract_satisfied;
  w.initial_iterations = result.initial_iterations;
  w.final_iterations = result.final_iterations;
  return w;
}

/// The wire response the server builds from a SearchOutcome
/// (BlinkServer::RunSearch).
SearchResponseWire SearchWireOf(const SearchOutcome& outcome) {
  SearchResponseWire response;
  response.best_index = outcome.best_index;
  for (const CandidateResult& cr : outcome.candidates) {
    SearchCandidateResultWire wire;
    wire.l2 = cr.candidate.l2;
    if (!cr.status.ok()) {
      wire.status = WireStatusFromStatus(cr.status);
      wire.message = cr.status.message();
    } else if (cr.skipped) {
      wire.status = WireStatus::kInfeasible;
      wire.message = "skipped (search budget)";
    } else {
      wire.score = cr.score;
      wire.final_epsilon = cr.result.final_epsilon;
      wire.sample_size = cr.result.sample_size;
      wire.model = cr.result.model;
    }
    response.candidates.push_back(std::move(wire));
  }
  return response;
}

void CountModel(const ApproxResult& r, ReplayCost* cost) {
  cost->phases += r.timings;
  ++cost->models;
  cost->initial_only += r.used_initial_only ? 1 : 0;
  cost->initial_iterations += r.initial_iterations;
  cost->final_iterations += r.final_iterations;
  cost->size_evaluations += r.size_estimate.evaluations;
}

/// Replays a Train through the public stage calls, one span each.
Result<Reply> ReplayTrain(TrainingSession* ref, const TrainRequestWire& req,
                          SpanLog* log, std::uint64_t rid, ReplayCost* cost) {
  BLINKML_ASSIGN_OR_RETURN(std::shared_ptr<ModelSpec> spec,
                           MakeSpecByName(req.model_class, req.l2));
  ApproximationContract contract;
  contract.epsilon = req.epsilon;
  contract.delta = req.delta;
  const std::uint64_t seed = req.seed != 0 ? req.seed : ref->config().seed;
  std::unique_ptr<TrainingPipeline> pipeline;
  {
    ScopedSpan span(log, "session.make_pipeline", rid);
    BLINKML_ASSIGN_OR_RETURN(pipeline,
                             ref->MakePipeline(*spec, contract, seed));
    cost->make_pipeline_s = span.Close();
  }
  double stages = cost->make_pipeline_s;
  auto stage = [&](const char* name, auto&& call) -> Status {
    ScopedSpan span(log, name, rid);
    const Status st = call();
    stages += span.Close();
    return st;
  };
  BLINKML_RETURN_NOT_OK(stage("core.initial_train",
                              [&] { return pipeline->TrainInitial(); }));
  BLINKML_RETURN_NOT_OK(stage("core.statistics", [&] {
    return pipeline->ComputeInitialStatistics();
  }));
  BLINKML_RETURN_NOT_OK(stage("core.accuracy_estimation", [&] {
    return pipeline->EstimateInitialAccuracy();
  }));
  if (!pipeline->initial_meets_contract()) {
    BLINKML_RETURN_NOT_OK(stage("core.size_estimation", [&] {
      return pipeline->EstimateMinimumSampleSize();
    }));
    BLINKML_RETURN_NOT_OK(
        stage("core.final_train", [&] { return pipeline->TrainFinal(); }));
  }
  ApproxResult result;
  {
    ScopedSpan span(log, "core.finish", rid);
    result = pipeline->Finish();
    ref->RecordRun(result.timings);
    stages += span.Close();
  }
  cost->stage_sum_s = stages;
  CountModel(result, cost);
  Reply reply = FromTrain(TrainWireOf(req.model_class, result));
  if (result.timings.size_estimation <= 0.0 ||
      result.timings.final_train <= 0.0) {
    reply.regime_error = "replay skipped size estimation or final train";
  }
  return reply;
}

/// Replays a Search through HyperparamSearch::Run with the options
/// BlinkServer::RunSearch uses.
Result<Reply> ReplaySearch(TrainingSession* ref, const SearchRequestWire& req,
                           std::int64_t full_n, SpanLog* log,
                           std::uint64_t rid, ReplayCost* cost) {
  SearchOptions options;
  options.contract.epsilon = req.epsilon;
  options.contract.delta = req.delta;
  std::vector<Candidate> candidates;
  for (const SearchCandidateWire& c : req.candidates) {
    Candidate candidate;
    candidate.l2 = c.l2;
    candidate.seed = c.seed;
    candidates.push_back(candidate);
  }
  const std::string model_class = req.model_class;
  const SpecFactory factory = [model_class](const Candidate& c) {
    Result<std::shared_ptr<ModelSpec>> spec =
        MakeSpecByName(model_class, c.l2);
    return spec.ok() ? *spec : nullptr;
  };
  SearchOutcome outcome;
  {
    ScopedSpan span(log, "session.search", rid);
    outcome = HyperparamSearch(ref, options).Run(factory, candidates);
    cost->search_s = span.Close();
  }
  cost->stage_sum_s = cost->search_s;
  cost->batched_score_groups = outcome.batched_score_groups;
  for (const CandidateResult& c : outcome.candidates) {
    if (!c.status.ok()) return c.status;
    CountModel(c.result, cost);
    cost->candidate_s_sum += c.seconds;
    cost->candidate_s_max = std::max(cost->candidate_s_max, c.seconds);
  }
  return FromSearch(SearchWireOf(outcome), req.epsilon, full_n);
}

/// One in-process server with its manager, on a Unix socket.
class InProcessServer {
 public:
  ~InProcessServer() { Stop(); }
  Status Start(const std::string& socket_path) {
    ServeOptions serve;
    serve.max_concurrent_jobs = 1;
    manager_ = std::make_unique<SessionManager>(serve);
    ServerOptions options;
    options.unix_path = socket_path;
    options.runner_threads = 1;
    server_ = std::make_unique<BlinkServer>(manager_.get(), options);
    return server_->Start();
  }
  void Stop() {
    if (server_) server_->Stop();
    server_.reset();
    manager_.reset();
  }
  BlinkServer* server() { return server_.get(); }

 private:
  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<BlinkServer> server_;
};

Outcome RunSessionWorkload(const Options& opt, Kind kind) {
  Outcome out;
  const Setup setup =
      kind == Kind::kTrain ? TrainDenseSetup(opt.smoke)
                           : SearchSparseSetup(opt.smoke);
  const RegisterDatasetRequest& reg = setup.registration;
  const std::int64_t full_n = reg.rows - reg.config.holdout_size;
  out.pool_lanes = ThreadPool::Global().parallelism();
  out.connections = 1;
  Requests requests(kind, setup, opt.seed);

  // One wire call: latency from send to decoded response.
  auto call = [&](BlinkClient* client, std::size_t i, double* seconds,
                  Reply* reply) -> Status {
    const std::int64_t t0 = NowNs();
    if (kind == Kind::kTrain) {
      Result<TrainResponseWire> r = client->Train(requests.Train(i));
      *seconds = static_cast<double>(NowNs() - t0) * 1e-9;
      if (!r.ok()) return r.status();
      *reply = FromTrain(*r);
    } else {
      Result<SearchResponseWire> r = client->Search(requests.Search(i));
      *seconds = static_cast<double>(NowNs() - t0) * 1e-9;
      if (!r.ok()) return r.status();
      *reply = FromSearch(*r, requests.Search(i).epsilon, full_n);
    }
    return Status::OK();
  };

  // Bring-up: server up and registration (which materializes the data
  // once to size it). Warm-up: the first requests, the first of which
  // loads the data into a session.
  InProcessServer server;
  std::optional<BlinkClient> client;
  auto bring_up = [&](double* seconds) -> Status {
    client.reset();
    server.Stop();
    const std::int64_t t0 = NowNs();
    const std::string socket = OutDir() + "/" + reg.name + "-" +
                               std::to_string(::getpid()) + ".sock";
    BLINKML_RETURN_NOT_OK(server.Start(socket));
    BLINKML_ASSIGN_OR_RETURN(BlinkClient c,
                             BlinkClient::ConnectUnixRetry(socket, 50, 20));
    client.emplace(std::move(c));
    BLINKML_RETURN_NOT_OK(client->RegisterDataset(reg).status());
    *seconds = static_cast<double>(NowNs() - t0) * 1e-9;
    return Status::OK();
  };
  auto warm_up = [&]() -> Status {
    for (int i = 0; i < setup.warmup; ++i) {
      double ignored = 0.0;
      Reply reply;
      BLINKML_RETURN_NOT_OK(
          call(&*client, static_cast<std::size_t>(i), &ignored, &reply));
    }
    return Status::OK();
  };

  // --- Setup: bring-ups (median) + warm-up. ---
  std::vector<double> bringups(static_cast<std::size_t>(setup.bringups));
  for (double& seconds : bringups) {
    const Status st = bring_up(&seconds);
    if (!st.ok()) {
      out.Fail("setup: " + st.ToString());
      return out;
    }
  }
  const std::int64_t warm0 = NowNs();
  if (const Status st = warm_up(); !st.ok()) {
    out.Fail("warm-up: " + st.ToString());
    return out;
  }
  const double setup_s =
      Median(bringups) + static_cast<double>(NowNs() - warm0) * 1e-9;

  // --- Timed closed loop (no tracing). ---
  const std::size_t first = static_cast<std::size_t>(setup.warmup);
  /// What the end-to-end metrics need from one OK timed response.
  struct TimedReply {
    double latency_ms = 0.0;
    /// Response time since the timed start.
    double end_s = 0.0;
    std::vector<double> sample_fractions;
    int models = 0;
    int contract_met = 0;
  };
  std::vector<TimedReply> replies;
  std::vector<std::uint64_t> digests;
  std::int64_t ok_and_checked = 0;
  double peak_rss_mb = 0.0;
  const CpuTimes cpu_start = ReadCpuTimes();
  const std::int64_t start = NowNs();
  std::int64_t end = start;
  const std::int64_t budget = static_cast<std::int64_t>(opt.seconds * 1e9);
  for (std::size_t i = first; end - start < budget; ++i) {
    ++out.attempted;
    double seconds = 0.0;
    Reply reply;
    const Status st = call(&*client, i, &seconds, &reply);
    end = NowNs();
    if (out.attempted == setup.rss_after) peak_rss_mb = PeakRssMb(::getpid());
    digests.push_back(reply.digest);
    if (!st.ok()) {
      ++out.failed;
      out.Fail("request " + std::to_string(i) + ": " + st.ToString());
      continue;
    }
    replies.push_back(TimedReply{seconds * 1e3,
                                 static_cast<double>(end - start) * 1e-9,
                                 reply.sample_fractions, reply.models,
                                 reply.contract_met});
    if (!reply.regime_error.empty()) {
      out.Fail("request " + std::to_string(i) + ": " + reply.regime_error);
      continue;
    }
    ++ok_and_checked;
  }
  out.steal_share = StealShare(cpu_start, ReadCpuTimes());
  if (peak_rss_mb == 0.0) peak_rss_mb = PeakRssMb(::getpid());
  const std::uint64_t rejected = RejectedTotal(server.server()->stats());
  if (rejected != 0) {
    out.Fail("server rejected " + std::to_string(rejected) + " frames");
  }
  client.reset();
  server.Stop();
  // The metrics read whole cycles of the mix only, so every seed weighs
  // the same requests; a run shorter than one cycle reads all it has.
  // Requests after the last whole cycle are still sent and checked.
  std::size_t counted = replies.size();
  if (counted >= setup.cycle) counted -= counted % setup.cycle;
  const std::size_t audited =
      std::min(counted, setup.audit_cycles * setup.cycle);
  std::vector<double> latencies_ms;
  std::vector<double> fractions;
  std::int64_t models = 0;
  std::int64_t met = 0;
  for (std::size_t k = 0; k < counted; ++k) {
    const TimedReply& r = replies[k];
    latencies_ms.push_back(r.latency_ms);
    if (k >= audited) continue;
    fractions.insert(fractions.end(), r.sample_fractions.begin(),
                     r.sample_fractions.end());
    models += r.models;
    met += r.contract_met;
  }
  const double wall_s = counted > 0 ? replies[counted - 1].end_s : 1.0;
  AddEndToEnd(&out, setup_s, static_cast<double>(counted) / wall_s,
              latencies_ms, setup.tail_percentile, ok_and_checked,
              peak_rss_mb, Mean(fractions),
              models > 0 ? static_cast<double>(met) /
                               static_cast<double>(models)
                         : 0.0);

  // --- Reference session: same data, same config. ---
  Result<Dataset> data = MakeWireDataset(reg);
  if (!data.ok()) {
    out.Fail("reference data: " + data.status().ToString());
    return out;
  }
  TrainingSession ref(std::make_shared<const Dataset>(std::move(*data)),
                      ToBlinkConfig(reg.config));
  SpanLog log;
  auto replay = [&](std::size_t i, ReplayCost* cost) -> Result<Reply> {
    if (kind == Kind::kTrain) {
      return ReplayTrain(&ref, requests.Train(i), &log, i, cost);
    }
    return ReplaySearch(&ref, requests.Search(i), full_n, &log, i, cost);
  };
  auto check = [&](std::size_t i, std::uint64_t wire_digest,
                   Result<Reply>& replayed) {
    if (!replayed.ok()) {
      out.Fail("replay " + std::to_string(i) + ": " +
               replayed.status().ToString());
      return;
    }
    std::uint64_t reference = replayed->digest;
    if (opt.corrupt_reference) reference ^= 1;
    if (reference != wire_digest) {
      out.Fail("request " + std::to_string(i) +
               ": wire response differs from the reference replay");
    }
    if (!replayed->regime_error.empty()) {
      out.Fail("replay " + std::to_string(i) + ": " + replayed->regime_error);
    }
  };
  auto phases_nonzero = [&](const PhaseTimings& t) {
    return t.initial_train > 0.0 && t.statistics > 0.0 &&
           t.accuracy_estimation > 0.0 && t.size_estimation > 0.0 &&
           t.final_train > 0.0;
  };

  if (!opt.trace) {
    // Spot check: the last timed request.
    const std::size_t k = digests.size() - 1;
    ReplayCost cost;
    Result<Reply> replayed = replay(first + k, &cost);
    check(first + k, digests[k], replayed);
    if (!phases_nonzero(cost.phases)) {
      out.Fail("a pipeline phase total is zero in the replayed requests");
    }
    return out;
  }

  // --- Traced run: the timed sequence again from its start, wire then
  // replay, for at most the run length. A fresh server and the
  // reference both see the warm-up first, so each holds in its caches what
  // the timed server held at the same request. ---
  double ignored = 0.0;
  Status restarted = bring_up(&ignored);
  if (restarted.ok()) restarted = warm_up();
  if (!restarted.ok()) {
    out.Fail("traced run setup: " + restarted.ToString());
    return out;
  }
  for (int i = 0; i < setup.warmup; ++i) {
    ReplayCost cost;
    Result<Reply> replayed = replay(static_cast<std::size_t>(i), &cost);
    if (!replayed.ok()) {
      out.Fail("reference warm-up: " + replayed.status().ToString());
      return out;
    }
  }
  log = SpanLog();
  const SessionStats before = ref.stats();
  std::vector<double> rpc_s, codec_s, overhead_s;
  ReplayCost total;
  std::vector<double> make_pipeline_s, search_s, lane_util, straggler;
  const std::int64_t traced_start = NowNs();
  for (std::size_t k = 0; k < digests.size(); ++k) {
    if (k > 0 && NowNs() - traced_start >= budget) break;
    const std::size_t i = first + k;
    double seconds = 0.0;
    Reply wire;
    Status st;
    bool codec_ok = false;
    {
      ScopedSpan span(&log, "net.rpc", i);
      st = call(&*client, i, &seconds, &wire);
      span.Close();
    }
    if (!st.ok()) {
      out.Fail("traced request " + std::to_string(i) + ": " + st.ToString());
      continue;
    }
    rpc_s.push_back(seconds);
    if (wire.digest != digests[k]) {
      out.Fail("request " + std::to_string(i) +
               ": traced response differs from the timed one");
    }
    {
      // Public codec cost: the request and the response, each encoded and
      // decoded once.
      ScopedSpan span(&log, "net.codec", i);
      if (kind == Kind::kTrain) {
        codec_ok = RoundTrip<TrainRequestWire>(requests.Train(i)) &&
                   RoundTripBytes<TrainResponseWire>(wire.bytes);
      } else {
        codec_ok = RoundTrip<SearchRequestWire>(requests.Search(i)) &&
                   RoundTripBytes<SearchResponseWire>(wire.bytes);
      }
      codec_s.push_back(span.Close());
    }
    if (!codec_ok) {
      out.Fail("codec round trip failed for " + std::to_string(i));
    }
    ReplayCost cost;
    Result<Reply> replayed = [&] {
      ScopedSpan span(&log, "replay", i);
      return replay(i, &cost);
    }();
    check(i, wire.digest, replayed);
    overhead_s.push_back(seconds - cost.stage_sum_s);
    total.phases += cost.phases;
    total.models += cost.models;
    total.initial_only += cost.initial_only;
    total.initial_iterations += cost.initial_iterations;
    total.final_iterations += cost.final_iterations;
    total.size_evaluations += cost.size_evaluations;
    total.batched_score_groups += cost.batched_score_groups;
    make_pipeline_s.push_back(cost.make_pipeline_s);
    if (kind == Kind::kSearch && cost.models > 0) {
      search_s.push_back(cost.search_s);
      lane_util.push_back(cost.candidate_s_sum /
                          (cost.search_s * out.pool_lanes));
      straggler.push_back(cost.candidate_s_max /
                          (cost.candidate_s_sum / cost.models));
    }
  }
  if (!phases_nonzero(total.phases)) {
    out.Fail("a pipeline phase total is zero in the traced run");
  }
  if (kind == Kind::kTrain && total.initial_only != 0) {
    out.Fail("train-dense returned initial-only models");
  }
  const SessionStats after = ref.stats();
  const double n =
      static_cast<double>(std::max<std::size_t>(rpc_s.size(), 1));
  const double m = static_cast<double>(std::max(total.models, 1));
  const double rpc_sum = Sum(rpc_s);
  // Candidate phases overlap across lanes in a search: their share is of
  // lane time (request seconds x lanes).
  const double lane_time =
      rpc_sum * (kind == Kind::kSearch ? out.pool_lanes : 1);
  auto& L = out.per_layer;
  auto phase = [&](const char* name, double seconds) {
    out.Add(&L, name, "ms", seconds / n * 1e3);
    out.Add(&L, std::string(name) + ".share", "ratio",
            lane_time > 0 ? seconds / lane_time : 0.0);
  };
  phase("core.initial_train_ms", total.phases.initial_train);
  phase("core.statistics_ms", total.phases.statistics);
  phase("core.accuracy_estimation_ms", total.phases.accuracy_estimation);
  phase("core.size_estimation_ms", total.phases.size_estimation);
  phase("core.final_train_ms", total.phases.final_train);
  out.Add(&L, "optim.initial_iterations", "count",
          total.initial_iterations / m);
  out.Add(&L, "optim.final_iterations", "count", total.final_iterations / m);
  out.Add(&L, "core.size_evaluations", "count", total.size_evaluations / m);
  out.Add(&L, "core.initial_only_ratio", "ratio", total.initial_only / m);
  out.Add(&L, "session.make_pipeline_ms", "ms", Mean(make_pipeline_s) * 1e3);
  out.Add(&L, "session.make_pipeline_ms.share", "ratio",
          rpc_sum > 0 ? Sum(make_pipeline_s) / rpc_sum : 0.0);
  out.Add(&L, "session.search_ms", "ms", Mean(search_s) * 1e3);
  out.Add(&L, "session.lane_utilization", "ratio", Mean(lane_util));
  out.Add(&L, "session.straggler_ratio", "ratio", Mean(straggler));
  out.Add(&L, "session.batched_score_groups", "count",
          total.batched_score_groups / n);
  const auto cache_hits = after.cache.hits - before.cache.hits;
  const auto cache_misses = after.cache.misses - before.cache.misses;
  const auto cache_bypassed = after.cache.bypassed - before.cache.bypassed;
  const double lookups = static_cast<double>(cache_hits + cache_misses);
  out.Add(&L, "data.sample_cache_hit_ratio", "ratio",
          lookups > 0 ? cache_hits / lookups : 0.0);
  out.Add(&L, "data.sample_cache_bypass_ratio", "ratio",
          lookups > 0 ? cache_bypassed / lookups : 0.0);
  out.Add(&L, "data.cached_mb", "MB",
          static_cast<double>(after.cache.cached_bytes) / (1 << 20));
  const auto gram_hits = after.gram_cache.hits - before.gram_cache.hits;
  const auto gram_misses = after.gram_cache.misses - before.gram_cache.misses;
  const double gram_lookups = static_cast<double>(gram_hits + gram_misses);
  out.Add(&L, "data.gram_cache_hit_ratio", "ratio",
          gram_lookups > 0 ? gram_hits / gram_lookups : 0.0);
  out.Add(&L, "net.codec_us", "us", Median(codec_s) * 1e6);
  out.Add(&L, "net.codec_us.share", "ratio",
          rpc_sum > 0 ? Sum(codec_s) / rpc_sum : 0.0);
  out.Add(&L, "net.overhead_ms", "ms", Median(overhead_s) * 1e3);
  out.Add(&L, "net.overhead_ms.share", "ratio",
          rpc_sum > 0 ? Sum(overhead_s) / rpc_sum : 0.0);
  out.Add(&L, "net.rpc_ms", "ms", Median(rpc_s) * 1e3);
  const std::uint64_t traced_rejected =
      RejectedTotal(server.server()->stats());
  if (traced_rejected != 0) {
    out.Fail("server rejected " + std::to_string(traced_rejected) +
             " traced frames");
  }
  out.Add(&L, "net.rejected_total", "count",
          static_cast<double>(rejected + traced_rejected));
  out.Add(&L, "trace.overhead_ms", "ms",
          Median(rpc_s) * 1e3 - Median(latencies_ms));
  const Status written = log.WriteChromeTrace(
      OutDir() + "/" + reg.name + "-seed" + std::to_string(opt.seed) +
      ".trace.json");
  if (!written.ok()) out.Fail(written.ToString());
  return out;
}

}  // namespace

Outcome RunTrainDense(const Options& options) {
  return RunSessionWorkload(options, Kind::kTrain);
}

Outcome RunSearchSparse(const Options& options) {
  return RunSessionWorkload(options, Kind::kSearch);
}

}  // namespace bench
