#include "shard/router.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

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

Result<int> DialUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(StrFormat("socket: %s", std::strerror(errno)));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError(
        StrFormat("connect(%s): %s", path.c_str(), std::strerror(err)));
  }
  return fd;
}

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

ShardRouter::ShardRouter(RouterOptions options) : options_(std::move(options)) {
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
    const obs::Labels labels = {{"shard", std::to_string(i)}};
    c_forwarded_.push_back(metrics_.Counter("shard_forwarded_total", labels));
    c_unavailable_.push_back(
        metrics_.Counter("shard_unavailable_total", labels));
  }
  c_replayed_ = metrics_.Counter("shard_replayed_registrations_total");
  c_migrated_ = metrics_.Counter("shard_migrated_registrations_total");
  c_restarts_ = metrics_.Counter("shard_worker_restarts_total");
  c_tripped_ = metrics_.Counter("shard_workers_tripped_total");
  g_connections_ = metrics_.Gauge("shard_router_connections");
  g_up_workers_ = metrics_.Gauge("shard_up_workers");
}

ShardRouter::~ShardRouter() { Stop(); }

Status ShardRouter::Start() {
  if (started_) return Status::InvalidArgument("router already started");
  if (options_.unix_path.empty()) {
    return Status::InvalidArgument("router needs a unix_path");
  }
  BLINKML_RETURN_NOT_OK(supervisor_->Start());

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
    supervisor_->Stop();
    return Status::InvalidArgument("router socket path too long: " +
                                   options_.unix_path);
  }
  std::memcpy(addr.sun_path, options_.unix_path.c_str(),
              options_.unix_path.size() + 1);
  ::unlink(options_.unix_path.c_str());
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    supervisor_->Stop();
    return Status::IOError(StrFormat("socket: %s", std::strerror(errno)));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    supervisor_->Stop();
    return Status::IOError(StrFormat("bind(%s): %s",
                                     options_.unix_path.c_str(),
                                     std::strerror(err)));
  }
  if (::listen(listen_fd_, options_.listen_backlog) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    supervisor_->Stop();
    return Status::IOError(StrFormat("listen(%s): %s",
                                     options_.unix_path.c_str(),
                                     std::strerror(err)));
  }
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void ShardRouter::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  // shutdown() unblocks the accept; the fd is closed only after the
  // accept thread joined, so it can neither read a stale value nor
  // accept on a recycled fd number.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    for (auto& [fd, thread] : handlers_) {
      ::shutdown(fd, SHUT_RDWR);
      handlers.push_back(std::move(thread));
    }
    handlers_.clear();
    for (std::thread& t : finished_handlers_) handlers.push_back(std::move(t));
    finished_handlers_.clear();
  }
  for (std::thread& t : handlers) t.join();
  supervisor_->Stop();
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
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

void ShardRouter::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed (Stop) or fatal
    }
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(handlers_mu_);
      if (stopping_.load(std::memory_order_acquire)) {
        ::close(fd);
        break;
      }
      finished.swap(finished_handlers_);
      g_connections_->Add(1);
      // The new handler cannot reach its own erase before this insert:
      // both hold handlers_mu_.
      handlers_.emplace(fd, std::thread([this, fd] { HandleConnection(fd); }));
    }
    for (std::thread& t : finished) t.join();
  }
}

void ShardRouter::HandleConnection(int fd) {
  ClientConn conn;
  conn.fd = fd;
  while (!stopping_.load(std::memory_order_acquire)) {
    Frame frame;
    const Status st = net::ReadFrame(fd, &frame);
    if (!st.ok()) {
      // EOF / reset closes silently; framing corruption gets one error
      // frame first (the stream cannot be resynchronized either way).
      if (st.code() == StatusCode::kInvalidArgument) {
        SendEnvelopeOnly(&conn, 0, Verb::kError, WireStatus::kMalformedFrame,
                         st.ToString());
      }
      break;
    }
    if (!HandleFrame(&conn, frame)) break;
  }
  for (auto& entry : conn.shard_conns) {
    if (entry.second.fd >= 0) ::close(entry.second.fd);
  }
  {
    // Leave the table before closing: once the fd is closed, accept may
    // reuse its number for a new connection's entry.
    std::lock_guard<std::mutex> lock(handlers_mu_);
    const auto it = handlers_.find(fd);
    if (it != handlers_.end()) {  // else Stop() has taken the thread
      finished_handlers_.push_back(std::move(it->second));
      handlers_.erase(it);
    }
    g_connections_->Add(-1);
  }
  ::close(fd);
}

bool ShardRouter::HandleFrame(ClientConn* conn, const Frame& frame) {
  const FrameHeader& h = frame.header;
  if (h.version != net::kWireVersion) {
    SendEnvelopeOnly(conn, h.request_id, h.verb, WireStatus::kVersionMismatch,
                     StrFormat("wire version %u, want %u",
                               static_cast<unsigned>(h.version),
                               static_cast<unsigned>(net::kWireVersion)));
    return true;
  }
  switch (h.verb) {
    case Verb::kHealth:
      HandleHealth(conn, frame);
      return true;
    case Verb::kStats:
      HandleStats(conn, frame);
      return true;
    case Verb::kMetrics:
      HandleMetrics(conn, frame);
      return true;
    case Verb::kEvictIdle:
      HandleEvictIdle(conn, frame);
      return true;
    case Verb::kRegisterDataset:
      HandleRegisterDataset(conn, frame);
      return true;
    case Verb::kTrain:
    case Verb::kSearch:
    case Verb::kPredict: {
      ShardKey key;
      const Status st =
          net::PeekRoutingKey(h.verb, frame.payload.data(),
                              frame.payload.size(), &key.tenant, &key.dataset);
      if (!st.ok()) {
        SendEnvelopeOnly(conn, h.request_id, h.verb, WireStatus::kDecodeError,
                         st.ToString());
        return true;
      }
      RouteAndForward(conn, frame, key);
      return true;
    }
    default:
      SendEnvelopeOnly(conn, h.request_id, h.verb, WireStatus::kUnknownVerb,
                       StrFormat("unknown verb %u",
                                 static_cast<unsigned>(h.verb)));
      return true;
  }
}

void ShardRouter::RouteAndForward(ClientConn* conn, const Frame& frame,
                                  const ShardKey& key) {
  const FrameHeader& h = frame.header;
  obs::TraceContext ctx;
  ctx.request_id = h.request_id;
  ctx.tenant = key.tenant;
  ctx.verb = net::VerbName(h.verb);
  ctx.valid = true;
  obs::ScopedTraceContext scoped_ctx(ctx);

  const int owner = OwnerShard(key);
  if (owner < 0) {
    SendEnvelopeOnly(conn, h.request_id, h.verb, WireStatus::kUnavailable,
                     "no shards in the member set",
                     options_.unavailable_retry_ms);
    return;
  }
  const std::uint32_t shard = static_cast<std::uint32_t>(owner);
  obs::SpanScope span("shard_forward", "router", "shard",
                      static_cast<long long>(shard));
  const WorkerStatus ws = supervisor_->status(shard);
  if (!Routable(ws.state)) {
    ReplyUnavailable(conn, frame, shard,
                     StrFormat("shard %u is %s", shard,
                               WorkerStateName(ws.state)));
    return;
  }
  InflightGuard guard(inflight_[shard].get());
  Frame response;
  const Status st = ForwardToShard(conn, shard, frame, &response);
  if (!st.ok()) {
    // Transport-level failure: the worker died (or wedged) under this
    // request. Tell the supervisor now rather than at the next probe,
    // and answer a structured retryable rejection — the client's
    // RetryPolicy re-sends and converges once the worker is back.
    supervisor_->NoteSuspect(shard);
    ReplyUnavailable(conn, frame, shard, st.ToString());
    return;
  }
  c_forwarded_[shard]->Inc();
  FrameHeader out;
  out.verb = h.verb;
  out.request_id = h.request_id;
  out.payload_len = static_cast<std::uint32_t>(response.payload.size());
  (void)net::WriteFrame(conn->fd, out, response.payload.data(),
                        response.payload.size());
}

Status ShardRouter::ForwardToShard(ClientConn* conn, std::uint32_t shard_id,
                                   const Frame& frame, Frame* response) {
  const WorkerStatus ws = supervisor_->status(shard_id);
  if (!Routable(ws.state)) {
    return Status::IOError(StrFormat("shard %u is %s", shard_id,
                                     WorkerStateName(ws.state)));
  }
  ShardConn& sc = conn->shard_conns[shard_id];
  if (sc.fd >= 0 && sc.generation != ws.generation) {
    // The worker restarted since this connection was dialed.
    ::close(sc.fd);
    sc.fd = -1;
  }
  if (sc.fd < 0) {
    Result<int> fd = DialUnix(ws.socket_path);
    if (!fd.ok()) return fd.status();
    sc.fd = fd.value();
    sc.generation = ws.generation;
  }
  // Raw forward: same request_id/priority/deadline, so the worker's
  // spans and queue scheduling see exactly what the client asked for.
  FrameHeader out = frame.header;
  out.payload_len = static_cast<std::uint32_t>(frame.payload.size());
  Status st = net::WriteFrame(sc.fd, out, frame.payload.data(),
                              frame.payload.size());
  if (st.ok()) st = net::ReadFrame(sc.fd, response);
  if (st.ok() && response->header.request_id != frame.header.request_id) {
    st = Status::IOError(StrFormat(
        "shard %u response desync: sent id %llu, got %llu", shard_id,
        static_cast<unsigned long long>(frame.header.request_id),
        static_cast<unsigned long long>(response->header.request_id)));
  }
  if (!st.ok()) {
    ::close(sc.fd);
    sc.fd = -1;
    return st;
  }
  return Status::OK();
}

void ShardRouter::HandleRegisterDataset(ClientConn* conn, const Frame& frame) {
  const FrameHeader& h = frame.header;
  WireReader reader(frame.payload.data(), frame.payload.size());
  net::RegisterDatasetRequest request;
  Status st = net::Decode(&reader, &request);
  if (!st.ok()) {
    SendEnvelopeOnly(conn, h.request_id, h.verb, WireStatus::kDecodeError,
                     st.ToString());
    return;
  }
  // Journal BEFORE forwarding: registrations are idempotent at the
  // worker, so an entry whose forward fails is re-appliable — by the
  // client's retry, or by replay when the owner restarts. A conflicting
  // re-registration is rejected here, before any worker sees it.
  st = journal_.Record(request);
  if (!st.ok()) {
    SendEnvelopeOnly(conn, h.request_id, h.verb, WireStatus::kInvalidArgument,
                     st.ToString());
    return;
  }
  RouteAndForward(conn, frame, ShardKey{request.tenant, request.name});
}

void ShardRouter::HandleHealth(ClientConn* conn, const Frame& frame) {
  net::HealthResponseWire health;
  health.accepting = !stopping_.load(std::memory_order_acquire);
  const std::vector<std::uint32_t> members = Members();
  std::int64_t up = 0;
  bool degraded = false;
  for (const std::uint32_t id : members) {
    const WorkerStatus ws = supervisor_->status(id);
    if (Routable(ws.state)) {
      ++up;
    } else {
      degraded = true;
    }
  }
  g_up_workers_->Set(up);
  // `shedding` is the router's degraded bit: some member shard is not
  // routable, so a slice of the keyspace is answering kUnavailable.
  health.shedding = degraded;
  health.open_connections =
      static_cast<std::int32_t>(g_connections_->value());
  health.queued_jobs = 0;  // the router holds no queue; workers do
  for (const obs::Counter* c : c_unavailable_) {
    health.rejected_shed += c->value();
  }
  WireWriter body;
  net::Encode(health, &body);
  SendBody(conn, frame.header.request_id, frame.header.verb, body);
}

void ShardRouter::HandleStats(ClientConn* conn, const Frame& frame) {
  net::StatsResponseWire agg;
  bool any = false;
  std::uint32_t hint = options_.unavailable_retry_ms;
  for (const std::uint32_t id : Members()) {
    Frame response;
    if (!ForwardToShard(conn, id, frame, &response).ok()) {
      hint = std::max(hint, supervisor_->RetryAfterHintMs(id));
      continue;
    }
    WireReader reader(response.payload.data(), response.payload.size());
    net::ResponseEnvelope envelope;
    if (!net::Decode(&reader, &envelope).ok() ||
        envelope.status != WireStatus::kOk) {
      continue;
    }
    net::StatsResponseWire stats;
    if (!net::Decode(&reader, &stats).ok()) continue;
    AddServeStats(stats.manager, &agg.manager);
    AddServerStats(stats.server, &agg.server);
    any = true;
  }
  if (!any) {
    SendEnvelopeOnly(conn, frame.header.request_id, frame.header.verb,
                     WireStatus::kUnavailable, "no shard answered Stats",
                     hint);
    return;
  }
  WireWriter body;
  net::Encode(agg, &body);
  SendBody(conn, frame.header.request_id, frame.header.verb, body);
}

void ShardRouter::HandleMetrics(ClientConn* conn, const Frame& frame) {
  net::MetricsResponseWire out;
  for (const std::uint32_t id : Members()) {
    const WorkerStatus ws = supervisor_->status(id);
    out.text += StrFormat("# shard %u (%s, gen %llu)\n", id,
                          WorkerStateName(ws.state),
                          static_cast<unsigned long long>(ws.generation));
    Frame response;
    if (!ForwardToShard(conn, id, frame, &response).ok()) {
      out.text += "# unreachable\n";
      continue;
    }
    WireReader reader(response.payload.data(), response.payload.size());
    net::ResponseEnvelope envelope;
    net::MetricsResponseWire shard_metrics;
    if (net::Decode(&reader, &envelope).ok() &&
        envelope.status == WireStatus::kOk &&
        net::Decode(&reader, &shard_metrics).ok()) {
      out.text += shard_metrics.text;
    }
  }
  out.text += "# router\n";
  out.text += metrics_.TextSnapshot();
  WireWriter body;
  net::Encode(out, &body);
  SendBody(conn, frame.header.request_id, frame.header.verb, body);
}

void ShardRouter::HandleEvictIdle(ClientConn* conn, const Frame& frame) {
  net::EvictIdleResponseWire agg;
  bool any = false;
  std::uint32_t hint = options_.unavailable_retry_ms;
  for (const std::uint32_t id : Members()) {
    Frame response;
    if (!ForwardToShard(conn, id, frame, &response).ok()) {
      hint = std::max(hint, supervisor_->RetryAfterHintMs(id));
      continue;
    }
    WireReader reader(response.payload.data(), response.payload.size());
    net::ResponseEnvelope envelope;
    net::EvictIdleResponseWire evicted;
    if (net::Decode(&reader, &envelope).ok() &&
        envelope.status == WireStatus::kOk &&
        net::Decode(&reader, &evicted).ok()) {
      agg.sessions_evicted += evicted.sessions_evicted;
      any = true;
    }
  }
  if (!any) {
    SendEnvelopeOnly(conn, frame.header.request_id, frame.header.verb,
                     WireStatus::kUnavailable, "no shard answered EvictIdle",
                     hint);
    return;
  }
  WireWriter body;
  net::Encode(agg, &body);
  SendBody(conn, frame.header.request_id, frame.header.verb, body);
}

void ShardRouter::SendEnvelopeOnly(ClientConn* conn, std::uint64_t request_id,
                                   Verb verb, WireStatus status,
                                   const std::string& message,
                                   std::uint32_t retry_after_ms) {
  net::ResponseEnvelope envelope;
  envelope.status = status;
  envelope.message = message;
  envelope.retry_after_ms = retry_after_ms;
  WireWriter payload;
  net::Encode(envelope, &payload);
  FrameHeader h;
  h.verb = verb;
  h.request_id = request_id;
  h.payload_len = static_cast<std::uint32_t>(payload.bytes().size());
  (void)net::WriteFrame(conn->fd, h, payload.bytes().data(),
                        payload.bytes().size());
}

void ShardRouter::SendBody(ClientConn* conn, std::uint64_t request_id,
                           Verb verb, const WireWriter& body) {
  net::ResponseEnvelope envelope;  // kOk
  WireWriter payload;
  net::Encode(envelope, &payload);
  payload.Bytes(body.bytes().data(), body.bytes().size());
  FrameHeader h;
  h.verb = verb;
  h.request_id = request_id;
  h.payload_len = static_cast<std::uint32_t>(payload.bytes().size());
  (void)net::WriteFrame(conn->fd, h, payload.bytes().data(),
                        payload.bytes().size());
}

void ShardRouter::ReplyUnavailable(ClientConn* conn, const Frame& frame,
                                   std::uint32_t shard_id,
                                   const std::string& why) {
  c_unavailable_[shard_id]->Inc();
  const std::uint32_t hint = std::max(options_.unavailable_retry_ms,
                                      supervisor_->RetryAfterHintMs(shard_id));
  SendEnvelopeOnly(conn, frame.header.request_id, frame.header.verb,
                   WireStatus::kUnavailable, why, hint);
}

Result<net::BlinkClient> ShardRouter::ControlClient(
    const std::string& socket_path) {
  Result<net::BlinkClient> client = net::BlinkClient::ConnectUnixRetry(
      socket_path, options_.control_connect_attempts,
      options_.control_connect_backoff_ms);
  if (!client.ok()) return client;
  net::RetryPolicy policy;
  policy.max_attempts = options_.control_call_attempts;
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
