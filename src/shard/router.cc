#include "shard/router.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "net/client.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace blinkml {
namespace shard {
namespace {

using net::Frame;
using net::FrameHeader;
using net::Verb;
using net::WireReader;
using net::WireStatus;
using net::WireWriter;

/// Floor for the retry-after hint on kUnavailable answers (the
/// supervisor's backoff-aware hint can raise it).
constexpr std::uint32_t kUnavailableRetryMs = 25;
/// Control-plane clients (journal replay, drain/trip migration): connect
/// retry budget and per-call retry policy attempts.
constexpr int kControlConnectAttempts = 40;
constexpr std::uint32_t kControlConnectBackoffMs = 25;
constexpr int kControlCallAttempts = 5;

/// Routable worker states: kUp, plus kDraining — a draining worker keeps
/// serving until DrainShard flips routing away from it.
bool Routable(WorkerState state) {
  return state == WorkerState::kUp || state == WorkerState::kDraining;
}

void AddServeStats(const ServeStats& in, ServeStats* out) {
  out->jobs_submitted += in.jobs_submitted;
  out->jobs_completed += in.jobs_completed;
  out->jobs_failed += in.jobs_failed;
  out->sessions_created += in.sessions_created;
  out->sessions_evicted += in.sessions_evicted;
  out->datasets_loaded += in.datasets_loaded;
  out->datasets_unloaded += in.datasets_unloaded;
  out->resident_bytes += in.resident_bytes;
  out->cached_bytes += in.cached_bytes;
  out->live_sessions += in.live_sessions;
  out->loaded_datasets += in.loaded_datasets;
  out->loads_in_progress += in.loads_in_progress;
  out->queued_jobs += in.queued_jobs;
  out->active_jobs += in.active_jobs;
}

void AddServerStats(const net::ServerStatsWire& in, net::ServerStatsWire* out) {
  out->frames_received += in.frames_received;
  out->responses_sent += in.responses_sent;
  out->jobs_enqueued += in.jobs_enqueued;
  out->rejected_malformed += in.rejected_malformed;
  out->rejected_version += in.rejected_version;
  out->rejected_unknown_verb += in.rejected_unknown_verb;
  out->rejected_decode += in.rejected_decode;
  out->rejected_deadline += in.rejected_deadline;
  out->rejected_rate += in.rejected_rate;
  out->rejected_quota += in.rejected_quota;
  out->rejected_queue_full += in.rejected_queue_full;
  out->rejected_shed += in.rejected_shed;
  out->rejected_max_connections += in.rejected_max_connections;
  out->idle_reaped += in.idle_reaped;
  out->write_stalls += in.write_stalls;
  out->open_connections += in.open_connections;
  out->queued_jobs += in.queued_jobs;
}

/// RAII in-flight marker (drain waits for the count to hit zero).
class InflightGuard {
 public:
  explicit InflightGuard(std::atomic<int>* c) : c_(c) {
    c_->fetch_add(1, std::memory_order_acq_rel);
  }
  ~InflightGuard() { c_->fetch_sub(1, std::memory_order_acq_rel); }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  std::atomic<int>* c_;
};

}  // namespace

int ShardRouter::WorkerSockets::Take(std::uint64_t worker_generation) {
  std::lock_guard<std::mutex> lock(mu);
  if (generation != worker_generation) {
    // The worker restarted since these sockets were dialed.
    for (const int fd : idle) ::close(fd);
    idle.clear();
    generation = worker_generation;
  }
  if (idle.empty()) return -1;
  const int fd = idle.back();
  idle.pop_back();
  return fd;
}

void ShardRouter::WorkerSockets::Return(std::uint64_t worker_generation,
                                        int fd) {
  std::lock_guard<std::mutex> lock(mu);
  if (generation == worker_generation) {
    idle.push_back(fd);
  } else {
    ::close(fd);
  }
}

void ShardRouter::WorkerSockets::CloseAll() {
  std::lock_guard<std::mutex> lock(mu);
  for (const int fd : idle) ::close(fd);
  idle.clear();
}

ShardRouter::ShardRouter(RouterOptions options)
    : options_(std::move(options)), front_(options_, this, &metrics_) {
  supervisor_ = std::make_unique<WorkerSupervisor>(options_.num_shards,
                                                   options_.worker);
  supervisor_->set_on_worker_up(
      [this](std::uint32_t shard_id, const std::string& socket_path) {
        return ReplayShard(shard_id, socket_path);
      });
  supervisor_->set_on_worker_tripped(
      [this](std::uint32_t shard_id) { OnShardTripped(shard_id); });
  members_.reserve(static_cast<std::size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    members_.push_back(static_cast<std::uint32_t>(i));
    inflight_.push_back(std::make_unique<std::atomic<int>>(0));
    sockets_.push_back(std::make_unique<WorkerSockets>());
    loop_sockets_.push_back(std::make_unique<WorkerSockets>());
    const obs::Labels labels = {{"shard", std::to_string(i)}};
    c_forwarded_.push_back(metrics_.Counter("shard_forwarded_total", labels));
    c_unavailable_.push_back(
        metrics_.Counter("shard_unavailable_total", labels));
    h_forward_.push_back(metrics_.Histogram("shard_forward_seconds", labels));
  }
  c_replayed_ = metrics_.Counter("shard_replayed_registrations_total");
  c_migrated_ = metrics_.Counter("shard_migrated_registrations_total");
  c_restarts_ = metrics_.Counter("shard_worker_restarts_total");
  c_tripped_ = metrics_.Counter("shard_workers_tripped_total");
  g_up_workers_ = metrics_.Gauge("shard_up_workers");
}

ShardRouter::~ShardRouter() { Stop(); }

Status ShardRouter::Start() {
  BLINKML_RETURN_NOT_OK(supervisor_->Start());
  const Status started = front_.Start();
  if (!started.ok()) supervisor_->Stop();
  return started;
}

void ShardRouter::Stop() {
  // The front drains first: its admitted jobs still forward to live
  // workers.
  front_.Stop();
  supervisor_->Stop();
  for (const auto& pool : sockets_) pool->CloseAll();
  for (const auto& pool : loop_sockets_) pool->CloseAll();
}

int ShardRouter::OwnerShard(const ShardKey& key) const {
  std::lock_guard<std::mutex> lock(members_mu_);
  return RendezvousOwner(key, members_);
}

std::vector<std::uint32_t> ShardRouter::Members() const {
  std::lock_guard<std::mutex> lock(members_mu_);
  return members_;
}

RouterStatsSnapshot ShardRouter::stats() const {
  RouterStatsSnapshot s;
  for (const obs::Counter* c : c_forwarded_) s.forwarded += c->value();
  for (const obs::Counter* c : c_unavailable_) s.unavailable += c->value();
  s.replayed_registrations = c_replayed_->value();
  s.migrated_registrations = c_migrated_->value();
  s.worker_restarts = c_restarts_->value();
  s.workers_tripped = c_tripped_->value();
  return s;
}

net::Admission ShardRouter::Admit(const FrameHeader& header,
                                  const std::string& /*tenant*/,
                                  const std::uint8_t* payload,
                                  std::size_t size) {
  net::Admission admission;
  ShardKey key;
  const Status peek = net::PeekRoutingKey(header.verb, payload, size,
                                          &key.tenant, &key.dataset);
  if (!peek.ok()) {
    admission.status = WireStatus::kDecodeError;
    admission.message = peek.ToString();
    admission.reason = net::Rejection::kDecode;
    return admission;
  }
  // A forward the router's queue refuses is retried like one routed at
  // an unavailable shard.
  admission.retry_after_ms = kUnavailableRetryMs;
  return admission;
}

std::vector<std::uint8_t> ShardRouter::Execute(const FrameHeader& header,
                                               const std::string& /*tenant*/,
                                               const std::uint8_t* payload,
                                               std::size_t size) {
  switch (header.verb) {
    case Verb::kRegisterDataset:
      return RunRegisterDataset(header, payload, size);
    case Verb::kStats:
      return RunStats(header, payload, size);
    case Verb::kMetrics:
      return RunMetrics(header, payload, size);
    case Verb::kEvictIdle:
      return RunEvictIdle(header, payload, size);
    default: {
      // Train / Search / Predict; Admit already checked the key peeks.
      ShardKey key;
      (void)net::PeekRoutingKey(header.verb, payload, size, &key.tenant,
                                &key.dataset);
      return RouteAndForward(header, payload, size, key);
    }
  }
}

net::InlineAnswer ShardRouter::ExecuteInline(const FrameHeader& header,
                                             const std::string& /*tenant*/,
                                             const std::uint8_t* payload,
                                             std::size_t size) {
  // A small Predict: the IO loop relays it over a pooled non-blocking
  // worker socket. Nothing here waits on a worker; a dial either
  // completes at once or fails.
  ShardKey key;
  (void)net::PeekRoutingKey(header.verb, payload, size, &key.tenant,
                            &key.dataset);
  const int owner = OwnerShard(key);
  if (owner < 0) {
    return {net::ErrorPayload(WireStatus::kUnavailable,
                              "no shards in the member set",
                              kUnavailableRetryMs)};
  }
  const std::uint32_t shard = static_cast<std::uint32_t>(owner);
  const WorkerStatus ws = supervisor_->status(shard);
  if (!Routable(ws.state)) {
    return {Unavailable(shard, StrFormat("shard %u is %s", shard,
                                         WorkerStateName(ws.state)))};
  }
  int fd = loop_sockets_[shard]->Take(ws.generation);
  if (fd < 0) {
    Result<int> dialed = net::DialUnix(ws.socket_path, /*non_blocking=*/true);
    if (!dialed.ok()) {
      supervisor_->NoteSuspect(shard);
      return {Unavailable(shard, dialed.status().ToString())};
    }
    fd = dialed.value();
  }
  inflight_[shard]->fetch_add(1, std::memory_order_acq_rel);
  loop_forwards_[fd] =
      LoopForward{shard, ws.generation, std::chrono::steady_clock::now()};
  net::InlineAnswer answer;
  answer.relay_fd = fd;
  return answer;
}

std::vector<std::uint8_t> ShardRouter::EndRelay(int fd, const Status& status) {
  const auto it = loop_forwards_.find(fd);
  const LoopForward forward = it->second;
  loop_forwards_.erase(it);
  const std::uint32_t shard = forward.shard;
  h_forward_[shard]->Observe(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() -
                                 forward.started)
                                 .count());
  inflight_[shard]->fetch_sub(1, std::memory_order_acq_rel);
  if (status.ok()) {
    c_forwarded_[shard]->Inc();
    loop_sockets_[shard]->Return(forward.generation, fd);
    return {};
  }
  // Transport-level failure, as on the runner path: the worker died (or
  // wedged) under this request.
  ::close(fd);
  supervisor_->NoteSuspect(shard);
  return Unavailable(shard, status.ToString());
}

std::vector<std::uint8_t> ShardRouter::RouteAndForward(
    const FrameHeader& header, const std::uint8_t* payload, std::size_t size,
    const ShardKey& key) {
  const int owner = OwnerShard(key);
  if (owner < 0) {
    return net::ErrorPayload(WireStatus::kUnavailable,
                             "no shards in the member set",
                             kUnavailableRetryMs);
  }
  const std::uint32_t shard = static_cast<std::uint32_t>(owner);
  obs::SpanScope span("shard_forward", "router", "shard",
                      static_cast<long long>(shard));
  const WorkerStatus ws = supervisor_->status(shard);
  if (!Routable(ws.state)) {
    return Unavailable(shard, StrFormat("shard %u is %s", shard,
                                        WorkerStateName(ws.state)));
  }
  InflightGuard guard(inflight_[shard].get());
  Frame response;
  const Status st = ForwardToShard(shard, header, payload, size, &response);
  if (!st.ok()) {
    // Transport-level failure: the worker died (or wedged) under this
    // request. Tell the supervisor now rather than at the next probe,
    // and answer a structured retryable rejection — the client's
    // RetryPolicy re-sends and converges once the worker is back.
    supervisor_->NoteSuspect(shard);
    return Unavailable(shard, st.ToString());
  }
  c_forwarded_[shard]->Inc();
  return std::move(response.payload);
}

Status ShardRouter::ForwardToShard(std::uint32_t shard_id,
                                   const FrameHeader& header,
                                   const std::uint8_t* payload,
                                   std::size_t size, Frame* response) {
  const WorkerStatus ws = supervisor_->status(shard_id);
  if (!Routable(ws.state)) {
    return Status::IOError(StrFormat("shard %u is %s", shard_id,
                                     WorkerStateName(ws.state)));
  }
  const auto start = std::chrono::steady_clock::now();
  WorkerSockets& pool = *sockets_[shard_id];
  int fd = pool.Take(ws.generation);
  if (fd < 0) {
    Result<int> dialed = net::DialUnix(ws.socket_path);
    if (!dialed.ok()) return dialed.status();
    fd = dialed.value();
  }
  // Raw forward: same request_id/priority/deadline, so the worker's
  // spans and queue scheduling see exactly what the client asked for.
  Status st = net::WriteFrame(fd, header, payload, size);
  if (st.ok()) st = net::ReadFrame(fd, response);
  if (st.ok() && response->header.request_id != header.request_id) {
    st = Status::IOError(StrFormat(
        "shard %u response desync: sent id %llu, got %llu", shard_id,
        static_cast<unsigned long long>(header.request_id),
        static_cast<unsigned long long>(response->header.request_id)));
  }
  h_forward_[shard_id]->Observe(std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - start)
                                    .count());
  if (st.ok()) {
    pool.Return(ws.generation, fd);
  } else {
    ::close(fd);
  }
  return st;
}

std::vector<std::uint8_t> ShardRouter::RunRegisterDataset(
    const FrameHeader& header, const std::uint8_t* payload, std::size_t size) {
  WireReader reader(payload, size);
  net::RegisterDatasetRequest request;
  Status st = net::Decode(&reader, &request);
  if (!st.ok()) {
    return net::ErrorPayload(WireStatus::kDecodeError, st.ToString());
  }
  // Journal BEFORE forwarding: registrations are idempotent at the
  // worker, so an entry whose forward fails is re-appliable — by the
  // client's retry, or by replay when the owner restarts. A conflicting
  // re-registration is rejected here, before any worker sees it.
  st = journal_.Record(request);
  if (!st.ok()) {
    return net::ErrorPayload(WireStatus::kInvalidArgument, st.ToString());
  }
  return RouteAndForward(header, payload, size,
                         ShardKey{request.tenant, request.name});
}

void ShardRouter::AddHealth(net::HealthResponseWire* health) {
  std::int64_t up = 0;
  bool degraded = false;
  for (const std::uint32_t id : Members()) {
    if (Routable(supervisor_->status(id).state)) {
      ++up;
    } else {
      degraded = true;
    }
  }
  g_up_workers_->Set(up);
  // The router's degraded bit rides `shedding`: some member shard is not
  // routable, so a slice of the keyspace is answering kUnavailable. Those
  // answers count with the front's own shed rejections.
  health->shedding = health->shedding || degraded;
  for (const obs::Counter* c : c_unavailable_) {
    health->rejected_shed += c->value();
  }
}

template <typename Body, typename OnAnswer>
std::uint32_t ShardRouter::FanOut(const FrameHeader& header,
                                  const std::uint8_t* payload,
                                  std::size_t size, OnAnswer on_answer) {
  std::uint32_t hint = kUnavailableRetryMs;
  for (const std::uint32_t id : Members()) {
    Frame response;
    Body body;
    bool answered = false;
    if (ForwardToShard(id, header, payload, size, &response).ok()) {
      WireReader reader(response.payload.data(), response.payload.size());
      net::ResponseEnvelope envelope;
      answered = net::Decode(&reader, &envelope).ok() &&
                 envelope.status == WireStatus::kOk &&
                 net::Decode(&reader, &body).ok();
    } else {
      hint = std::max(hint, supervisor_->RetryAfterHintMs(id));
    }
    on_answer(id, answered ? &body : nullptr);
  }
  return hint;
}

std::vector<std::uint8_t> ShardRouter::RunStats(const FrameHeader& header,
                                                const std::uint8_t* payload,
                                                std::size_t size) {
  net::StatsResponseWire agg;
  // The router front's own counters (its rejections, connections and
  // queue), then every worker's on top.
  agg.server = front_.stats();
  bool any = false;
  const std::uint32_t hint = FanOut<net::StatsResponseWire>(
      header, payload, size,
      [&](std::uint32_t, const net::StatsResponseWire* stats) {
        if (stats == nullptr) return;
        AddServeStats(stats->manager, &agg.manager);
        AddServerStats(stats->server, &agg.server);
        any = true;
      });
  if (!any) {
    return net::ErrorPayload(WireStatus::kUnavailable,
                             "no shard answered Stats", hint);
  }
  WireWriter body;
  net::Encode(agg, &body);
  return net::ResponsePayload(net::ResponseEnvelope{}, &body);
}

std::vector<std::uint8_t> ShardRouter::RunMetrics(const FrameHeader& header,
                                                  const std::uint8_t* payload,
                                                  std::size_t size) {
  net::MetricsResponseWire out;
  FanOut<net::MetricsResponseWire>(
      header, payload, size,
      [&](std::uint32_t id, const net::MetricsResponseWire* shard_metrics) {
        const WorkerStatus ws = supervisor_->status(id);
        out.text += StrFormat("# shard %u (%s, gen %llu)\n", id,
                              WorkerStateName(ws.state),
                              static_cast<unsigned long long>(ws.generation));
        out.text += shard_metrics != nullptr ? shard_metrics->text
                                             : "# unreachable\n";
      });
  front_.SampleGauges();
  out.text += "# router\n";
  out.text += metrics_.TextSnapshot();
  WireWriter body;
  net::Encode(out, &body);
  return net::ResponsePayload(net::ResponseEnvelope{}, &body);
}

std::vector<std::uint8_t> ShardRouter::RunEvictIdle(
    const FrameHeader& header, const std::uint8_t* payload, std::size_t size) {
  net::EvictIdleResponseWire agg;
  bool any = false;
  const std::uint32_t hint = FanOut<net::EvictIdleResponseWire>(
      header, payload, size,
      [&](std::uint32_t, const net::EvictIdleResponseWire* evicted) {
        if (evicted == nullptr) return;
        agg.sessions_evicted += evicted->sessions_evicted;
        any = true;
      });
  if (!any) {
    return net::ErrorPayload(WireStatus::kUnavailable,
                             "no shard answered EvictIdle", hint);
  }
  WireWriter body;
  net::Encode(agg, &body);
  return net::ResponsePayload(net::ResponseEnvelope{}, &body);
}

std::vector<std::uint8_t> ShardRouter::Unavailable(std::uint32_t shard_id,
                                                   const std::string& why) {
  c_unavailable_[shard_id]->Inc();
  const std::uint32_t hint =
      std::max(kUnavailableRetryMs, supervisor_->RetryAfterHintMs(shard_id));
  return net::ErrorPayload(WireStatus::kUnavailable, why, hint);
}

Result<net::BlinkClient> ShardRouter::ControlClient(
    const std::string& socket_path) {
  Result<net::BlinkClient> client = net::BlinkClient::ConnectUnixRetry(
      socket_path, kControlConnectAttempts, kControlConnectBackoffMs);
  if (!client.ok()) return client;
  net::RetryPolicy policy;
  policy.max_attempts = kControlCallAttempts;
  policy.reconnect = true;
  client.value().set_retry_policy(policy);
  return client;
}

Status ShardRouter::ReplayShard(std::uint32_t shard_id,
                                const std::string& socket_path) {
  // Ownership under the CURRENT member set: a crash never moved the
  // shard's keys (sticky failover), so this reconstructs exactly the
  // registrations routed at it — including any whose original forward
  // failed mid-crash (journaled first, idempotent at the worker).
  const std::vector<net::RegisterDatasetRequest> entries = journal_.Snapshot();
  const std::vector<std::uint32_t> members = Members();
  std::vector<const net::RegisterDatasetRequest*> owned;
  for (const net::RegisterDatasetRequest& entry : entries) {
    if (RendezvousOwner(ShardKey{entry.tenant, entry.name}, members) ==
        static_cast<int>(shard_id)) {
      owned.push_back(&entry);
    }
  }
  if (supervisor_->status(shard_id).generation >= 1) c_restarts_->Inc();
  if (owned.empty()) return Status::OK();
  Result<net::BlinkClient> client = ControlClient(socket_path);
  if (!client.ok()) return client.status();
  for (const net::RegisterDatasetRequest* entry : owned) {
    const auto response = client.value().RegisterDataset(*entry);
    if (!response.ok()) {
      return Status::IOError(StrFormat(
          "replaying '%s/%s' into shard %u: %s", entry->tenant.c_str(),
          entry->name.c_str(), shard_id,
          response.status().ToString().c_str()));
    }
    c_replayed_->Inc();
  }
  return Status::OK();
}

void ShardRouter::OnShardTripped(std::uint32_t shard_id) {
  c_tripped_->Inc();
  // Graceful degradation, not an outage: hand the dead shard's keys to
  // the survivors (migration first, flip second — same ordering as
  // drain, so a re-routed request can never reach an owner that is
  // missing its registration). Entries whose target is itself briefly
  // down are re-applied by that target's own replay; losses here only
  // delay convergence, never corrupt it.
  (void)MigrateShardKeys(shard_id);
  RemoveMember(shard_id);
}

Status ShardRouter::DrainShard(std::uint32_t shard_id) {
  {
    std::lock_guard<std::mutex> lock(members_mu_);
    if (std::find(members_.begin(), members_.end(), shard_id) ==
        members_.end()) {
      return Status::InvalidArgument(
          StrFormat("shard %u is not a member", shard_id));
    }
    if (members_.size() == 1) {
      return Status::InvalidArgument(
          "cannot drain the last member shard");
    }
  }
  // 1. Freeze lifecycle management; the worker keeps serving.
  BLINKML_RETURN_NOT_OK(supervisor_->BeginDrain(shard_id));
  // 2. Migrate registrations while the old owner still answers routed
  //    requests — no kNotFound window on either side of the flip.
  BLINKML_RETURN_NOT_OK(MigrateShardKeys(shard_id));
  // 3. Flip routing.
  RemoveMember(shard_id);
  // 4. Let in-flight forwards finish (new ones can no longer arrive).
  while (inflight_[shard_id]->load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // 5. SIGTERM: the daemon drains its own admitted queue and exits.
  return supervisor_->FinishDrain(shard_id);
}

Status ShardRouter::MigrateShardKeys(std::uint32_t leaving) {
  const std::vector<net::RegisterDatasetRequest> entries = journal_.Snapshot();
  const std::vector<std::uint32_t> members = Members();
  std::vector<std::uint32_t> survivors;
  for (const std::uint32_t id : members) {
    if (id != leaving) survivors.push_back(id);
  }
  if (survivors.empty()) {
    return Status::InvalidArgument("no surviving shards to migrate to");
  }
  Status first_error = Status::OK();
  std::unordered_map<std::uint32_t, std::unique_ptr<net::BlinkClient>> clients;
  for (const net::RegisterDatasetRequest& entry : entries) {
    const ShardKey key{entry.tenant, entry.name};
    if (RendezvousOwner(key, members) != static_cast<int>(leaving)) continue;
    const int target = RendezvousOwner(key, survivors);
    const std::uint32_t target_id = static_cast<std::uint32_t>(target);
    auto it = clients.find(target_id);
    if (it == clients.end()) {
      Result<net::BlinkClient> client =
          ControlClient(supervisor_->status(target_id).socket_path);
      if (!client.ok()) {
        if (first_error.ok()) first_error = client.status();
        continue;
      }
      it = clients
               .emplace(target_id, std::make_unique<net::BlinkClient>(
                                       std::move(client.value())))
               .first;
    }
    const auto response = it->second->RegisterDataset(entry);
    if (!response.ok()) {
      if (first_error.ok()) {
        first_error = Status::IOError(StrFormat(
            "migrating '%s/%s' from shard %u to %u: %s",
            entry.tenant.c_str(), entry.name.c_str(), leaving, target_id,
            response.status().ToString().c_str()));
      }
      continue;
    }
    c_migrated_->Inc();
  }
  return first_error;
}

void ShardRouter::RemoveMember(std::uint32_t shard_id) {
  std::lock_guard<std::mutex> lock(members_mu_);
  members_.erase(std::remove(members_.begin(), members_.end(), shard_id),
                 members_.end());
}

}  // namespace shard
}  // namespace blinkml
