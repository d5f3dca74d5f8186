#include "net/frame_server.h"

#include <errno.h>
#include <fcntl.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <iterator>
#include <thread>
#include <utility>

#include "obs/trace.h"
#include "util/failpoints.h"
#include "util/string_util.h"

namespace blinkml {
namespace net {

namespace {

constexpr int kListenBacklog = 64;

/// Rejection -> its net_rejected_total label and ServerStatsWire counter
/// (indexed by the enum value).
struct RejectionInfo {
  const char* label;
  std::uint64_t ServerStatsWire::*count;
};
constexpr RejectionInfo kRejections[] = {
    {"malformed", &ServerStatsWire::rejected_malformed},
    {"version", &ServerStatsWire::rejected_version},
    {"unknown_verb", &ServerStatsWire::rejected_unknown_verb},
    {"decode", &ServerStatsWire::rejected_decode},
    {"deadline", &ServerStatsWire::rejected_deadline},
    {"rate", &ServerStatsWire::rejected_rate},
    {"quota", &ServerStatsWire::rejected_quota},
    {"queue_full", &ServerStatsWire::rejected_queue_full},
    {"shed", &ServerStatsWire::rejected_shed},
    {"max_connections", &ServerStatsWire::rejected_max_connections},
};
static_assert(std::size(kRejections) ==
                  static_cast<std::size_t>(Rejection::kMaxConnections) + 1,
              "one entry per Rejection");

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(
        StrFormat("fcntl(O_NONBLOCK): %s", ::strerror(errno)));
  }
  return Status::OK();
}

/// Steady-clock milliseconds for connection activity stamps (monotonic;
/// only compared against itself).
std::int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ApplyInjectedDelay(const fail::FaultAction& action) {
  if (action.kind == fail::FaultKind::kDelay) {
    std::this_thread::sleep_for(std::chrono::milliseconds(action.arg));
  }
}

}  // namespace

std::vector<std::uint8_t> ResponsePayload(const ResponseEnvelope& envelope,
                                          const WireWriter* body) {
  WireWriter payload;
  Encode(envelope, &payload);
  if (body != nullptr) {
    payload.Bytes(body->bytes().data(), body->bytes().size());
  }
  return payload.Take();
}

std::vector<std::uint8_t> ErrorPayload(WireStatus status,
                                       const std::string& message,
                                       std::uint32_t retry_after_ms) {
  ResponseEnvelope envelope;
  envelope.status = status;
  envelope.message = message;
  envelope.retry_after_ms = retry_after_ms;
  return ResponsePayload(envelope);
}

FrameServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

FrameServer::FrameServer(const FrontOptions& options, FrameHandler* handler,
                         obs::Registry* metrics)
    : options_(options),
      handler_(handler),
      metrics_(metrics),
      queue_(options_.max_queued_jobs),
      h_queue_wait_(metrics_->Histogram("net_queue_wait_seconds")),
      g_queued_jobs_(metrics_->Gauge("net_queued_jobs")),
      g_open_connections_(metrics_->Gauge("net_open_connections")),
      c_write_stalls_(metrics_->Counter("net_write_stalls_total")),
      c_idle_reaped_(metrics_->Counter("net_idle_reaped_total")) {
  for (const RejectionInfo& info : kRejections) {
    c_rejected_.push_back(
        metrics_->Counter("net_rejected_total", {{"reason", info.label}}));
  }
}

FrameServer::~FrameServer() { Stop(); }

Status FrameServer::Listen() {
  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument(
          StrFormat("unix socket path too long: %s",
                    options_.unix_path.c_str()));
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::IOError(StrFormat("socket: %s", ::strerror(errno)));
    }
    ::unlink(options_.unix_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      return Status::IOError(StrFormat(
          "bind(%s): %s", options_.unix_path.c_str(), ::strerror(errno)));
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::IOError(StrFormat("socket: %s", ::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument(
          StrFormat("bad listen host: %s", options_.host.c_str()));
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      return Status::IOError(StrFormat("bind(%s:%d): %s",
                                       options_.host.c_str(), options_.port,
                                       ::strerror(errno)));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      port_ = ntohs(bound.sin_port);
    }
  }
  if (::listen(listen_fd_, kListenBacklog) < 0) {
    return Status::IOError(StrFormat("listen: %s", ::strerror(errno)));
  }
  BLINKML_RETURN_NOT_OK(SetNonBlocking(listen_fd_));

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    return Status::IOError(StrFormat("pipe: %s", ::strerror(errno)));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  return SetNonBlocking(wake_read_fd_);
}

Status FrameServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  const Status listened = Listen();
  if (!listened.ok()) {
    CloseListener();
    return listened;
  }

  stopping_.store(false);
  started_ = true;
  io_thread_ = std::thread([this] { IoLoop(); });
  const int runner_count = std::max(1, options_.runner_threads);
  runners_.reserve(static_cast<std::size_t>(runner_count));
  for (int i = 0; i < runner_count; ++i) {
    runners_.emplace_back([this] { RunnerLoop(); });
  }
  return Status::OK();
}

void FrameServer::Stop() {
  if (!started_) return;
  stopping_.store(true);
  // Wake the poll() so the IO thread observes stopping_ and exits; it
  // stops accepting and reading, so no new jobs arrive after this point.
  const char byte = 'x';
  while (::write(wake_write_fd_, &byte, 1) < 0 && errno == EINTR) {
  }
  io_thread_.join();

  // Drain: runners keep popping until the queue empties, answering every
  // admitted job (run or expire), then exit.
  queue_.Shutdown();
  for (std::thread& runner : runners_) runner.join();
  runners_.clear();

  connections_.clear();
  open_connections_.store(0);
  CloseListener();
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  started_ = false;
}

void FrameServer::CloseListener() {
  for (int* fd : {&listen_fd_, &wake_read_fd_, &wake_write_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

ServerStatsWire FrameServer::stats() const {
  ServerStatsWire out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  out.open_connections = open_connections_.load();
  out.queued_jobs = static_cast<std::int32_t>(queue_.size());
  return out;
}

void FrameServer::SampleGauges() {
  g_queued_jobs_->Set(static_cast<std::int64_t>(queue_.size()));
  g_open_connections_->Set(open_connections_.load());
}

void FrameServer::NoteRejected(Rejection reason) {
  Count(kRejections[static_cast<std::size_t>(reason)].count);
  c_rejected_[static_cast<std::size_t>(reason)]->Inc();
}

void FrameServer::Count(std::uint64_t ServerStatsWire::*counter) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++(stats_.*counter);
}

void FrameServer::IoLoop() {
  std::vector<pollfd> poll_fds;
  std::vector<std::uint8_t> chunk(64 * 1024);

  while (!stopping_.load()) {
    poll_fds.clear();
    poll_fds.push_back({wake_read_fd_, POLLIN, 0});
    poll_fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& [fd, conn] : connections_) {
      poll_fds.push_back({fd, POLLIN, 0});
    }

    // With an idle deadline configured, the poll timeout is the time to
    // the nearest reapable connection's deadline (otherwise block
    // indefinitely — the wake pipe handles shutdown).
    int timeout_ms = -1;
    if (options_.idle_timeout_ms > 0 && !connections_.empty()) {
      const std::int64_t now = NowMs();
      std::int64_t nearest = options_.idle_timeout_ms;
      for (const auto& [fd, conn] : connections_) {
        if (conn->inflight.load() > 0) continue;
        nearest = std::min(
            nearest, conn->last_activity_ms.load() +
                         options_.idle_timeout_ms - now);
      }
      timeout_ms = static_cast<int>(std::max<std::int64_t>(nearest, 0));
    }

    const int ready = ::poll(poll_fds.data(), poll_fds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure; Stop() still drains
    }
    if (stopping_.load()) break;

    if (poll_fds[0].revents != 0) {
      char buf[64];
      while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
      }
    }

    if (poll_fds[1].revents != 0) AcceptConnections();

    for (std::size_t i = 2; i < poll_fds.size(); ++i) {
      if (poll_fds[i].revents == 0) continue;
      const auto it = connections_.find(poll_fds[i].fd);
      if (it == connections_.end()) continue;
      const ConnPtr conn = it->second;

      // Read-path fault injection: kError simulates the peer vanishing
      // mid-frame (teardown of exactly this connection); kPartial caps
      // this wakeup's read so frames arrive in deterministic dribbles,
      // exercising the incremental parser (poll is level-triggered, so
      // the remainder re-arms it).
      bool closed = false;
      std::size_t read_cap = chunk.size();
      fail::FaultAction fault;
      if (BLINKML_FAILPOINT("net.read_frame", &fault)) {
        NoteFault("net.read_frame");
        ApplyInjectedDelay(fault);
        if (fault.kind == fail::FaultKind::kError) {
          closed = true;
        } else if (fault.kind == fail::FaultKind::kPartial) {
          read_cap = static_cast<std::size_t>(std::max<std::uint64_t>(
              1, std::min<std::uint64_t>(fault.arg, read_cap)));
        }
      }
      while (!closed) {
        const ssize_t n = ::recv(conn->fd, chunk.data(), read_cap, 0);
        if (n > 0) {
          conn->in.insert(conn->in.end(), chunk.data(), chunk.data() + n);
          conn->last_activity_ms.store(NowMs());
          if (read_cap < chunk.size()) break;  // injected partial read
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        closed = true;  // EOF or hard error
        break;
      }
      if (!closed && !DrainConnectionBuffer(conn)) closed = true;
      // Queued jobs from a closed connection still hold their ConnPtr;
      // their writes no-op on the closed flag and the fd closes with the
      // last reference.
      if (closed) CloseConnection(it);
    }

    if (options_.idle_timeout_ms > 0) {
      const std::int64_t now = NowMs();
      for (auto it = connections_.begin(); it != connections_.end();) {
        const ConnPtr& conn = it->second;
        if (conn->inflight.load() == 0 &&
            now - conn->last_activity_ms.load() >= options_.idle_timeout_ms) {
          Count(&ServerStatsWire::idle_reaped);
          c_idle_reaped_->Inc();
          RecordFailureEvent("idle_reap");
          CloseConnection(it++);
        } else {
          ++it;
        }
      }
    }
  }
}

void FrameServer::CloseConnection(
    std::unordered_map<int, ConnPtr>::iterator it) {
  it->second->closed.store(true);
  connections_.erase(it);
  open_connections_.fetch_sub(1);
}

void FrameServer::AcceptConnections() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (drained) or transient error
    fail::FaultAction fault;
    if (BLINKML_FAILPOINT("net.accept", &fault)) {
      NoteFault("net.accept");
      ApplyInjectedDelay(fault);
      if (fault.kind != fail::FaultKind::kDelay) {
        ::close(fd);  // injected accept failure: drop the connection
        continue;
      }
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    if (options_.max_connections > 0 &&
        static_cast<int>(connections_.size()) >= options_.max_connections) {
      // Structured reject: one kOverloaded error frame with a retry-after
      // hint, then close — a client sees a parseable rejection, not a
      // silent RST.
      NoteRejected(Rejection::kMaxConnections);
      RecordFailureEvent("max_connections");
      const std::vector<std::uint8_t> payload = ErrorPayload(
          WireStatus::kOverloaded,
          StrFormat("connection limit (%d) reached", options_.max_connections),
          options_.shed_retry_ms);
      FrameHeader reject;
      reject.verb = Verb::kError;
      // The socket buffer of a fresh connection always fits one small
      // frame; a tiny stall timeout keeps a pathological peer from
      // pinning the IO thread.
      WriteOptions wopts;
      wopts.stall_timeout_ms = 100;
      (void)WriteFrame(fd, reject, payload.data(), payload.size(), wopts);
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<Connection>(fd);
    conn->last_activity_ms.store(NowMs());
    connections_.emplace(fd, std::move(conn));
    open_connections_.fetch_add(1);
  }
}

bool FrameServer::DrainConnectionBuffer(const ConnPtr& conn) {
  std::size_t consumed = 0;
  bool keep_open = true;
  while (conn->in.size() - consumed >= kFrameHeaderBytes) {
    FrameHeader header;
    const Status status =
        DecodeFrameHeader(conn->in.data() + consumed, &header);
    if (!status.ok()) {
      // Unsynchronizable framing corruption: answer once, then close.
      Count(&ServerStatsWire::frames_received);
      NoteRejected(Rejection::kMalformed);
      SendError(conn, header.request_id, Verb::kError,
                WireStatus::kMalformedFrame, status.message());
      keep_open = false;
      break;
    }
    if (conn->in.size() - consumed < kFrameHeaderBytes + header.payload_len) {
      // Incomplete frame: size the buffer for all of it once instead of
      // regrowing (and recopying) it as the bytes arrive. The length is
      // capped by DecodeFrameHeader, and reserved pages stay untouched
      // until bytes land in them.
      conn->in.reserve(consumed + kFrameHeaderBytes + header.payload_len);
      break;
    }
    std::vector<std::uint8_t> payload(
        conn->in.begin() +
            static_cast<std::ptrdiff_t>(consumed + kFrameHeaderBytes),
        conn->in.begin() + static_cast<std::ptrdiff_t>(
                               consumed + kFrameHeaderBytes +
                               header.payload_len));
    consumed += kFrameHeaderBytes + header.payload_len;
    HandleFrame(conn, header, std::move(payload));
  }
  if (consumed > 0) {
    conn->in.erase(conn->in.begin(),
                   conn->in.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
  return keep_open;
}

void FrameServer::HandleFrame(const ConnPtr& conn, const FrameHeader& header,
                              std::vector<std::uint8_t> payload) {
  Count(&ServerStatsWire::frames_received);

  if (header.version != kWireVersion) {
    NoteRejected(Rejection::kVersion);
    SendError(conn, header.request_id, Verb::kError,
              WireStatus::kVersionMismatch,
              StrFormat("wire version %u, server speaks %u",
                        static_cast<unsigned>(header.version),
                        static_cast<unsigned>(kWireVersion)));
    return;
  }
  switch (header.verb) {
    case Verb::kHealth:
      // Answered inline on the IO thread: a health probe must work while
      // the queue is full, the tenant is over quota, or the front sheds
      // — the states it exists to report.
      HandleHealth(conn, header);
      return;
    case Verb::kRegisterDataset:
    case Verb::kTrain:
    case Verb::kSearch:
    case Verb::kPredict:
    case Verb::kStats:
    case Verb::kEvictIdle:
    case Verb::kMetrics:
      break;
    default:
      NoteRejected(Rejection::kUnknownVerb);
      SendError(conn, header.request_id, Verb::kError,
                WireStatus::kUnknownVerb,
                StrFormat("unknown verb %u",
                          static_cast<unsigned>(header.verb)));
      return;
  }

  std::string tenant;
  const Status peek = PeekTenant(payload.data(), payload.size(), &tenant);
  if (!peek.ok()) {
    NoteRejected(Rejection::kDecode);
    SendError(conn, header.request_id, header.verb, WireStatus::kDecodeError,
              peek.message());
    return;
  }

  // Load shed BEFORE admission: while the queue sits at the high-water
  // mark the front rejects in O(1) with an explicit hint — and without
  // burning the tenant's rate tokens on work it won't run.
  if (options_.shed_queue_depth > 0 &&
      queue_.size() >= options_.shed_queue_depth) {
    NoteRejected(Rejection::kShed);
    RecordFailureEvent("shed");
    SendError(conn, header.request_id, header.verb, WireStatus::kOverloaded,
              StrFormat("load shed: %u jobs queued (high-water mark %u)",
                        static_cast<unsigned>(queue_.size()),
                        static_cast<unsigned>(options_.shed_queue_depth)),
              options_.shed_retry_ms);
    return;
  }

  Admission admission = handler_->Admit(header, tenant, payload);
  if (admission.status != WireStatus::kOk) {
    NoteRejected(admission.reason);
    SendError(conn, header.request_id, header.verb, admission.status,
              admission.message, admission.retry_after_ms);
    return;
  }

  // Admitted: this is where the request's observable life begins (the
  // net_requests_total counter and, under tracing, the queue_wait span —
  // see the header comment).
  metrics_
      ->Counter("net_requests_total",
                {{"tenant", tenant}, {"verb", VerbName(header.verb)}})
      ->Inc();

  JobQueue::Job job;
  job.priority = header.priority;
  job.enqueued = std::chrono::steady_clock::now();
  if (header.deadline_ms > 0) {
    job.has_deadline = true;
    job.deadline = job.enqueued + std::chrono::milliseconds(header.deadline_ms);
  }
  auto request = std::make_shared<Request>(Request{
      header, std::move(tenant), std::move(payload), std::move(admission),
      job.enqueued});
  // The run/expire closures each end in Finish; they are mutually
  // exclusive by construction (the runner calls one or the other).
  job.run = [this, conn, request] {
    RunJob(conn, *request);
    Finish(conn, *request);
  };
  job.expire = [this, conn, request] {
    NoteRejected(Rejection::kDeadline);
    SendError(conn, request->header.request_id, request->header.verb,
              WireStatus::kDeadlineExceeded,
              StrFormat("deadline (%u ms) expired before execution",
                        static_cast<unsigned>(request->header.deadline_ms)));
    Finish(conn, *request);
  };

  // Counted before Push: a runner can pop and execute the job (a Stats
  // verb snapshots these counters) before a post-Push increment would
  // land.
  Count(&ServerStatsWire::jobs_enqueued);
  conn->inflight.fetch_add(1);
  if (!queue_.Push(std::move(job))) {
    const bool shutting_down = stopping_.load();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      --stats_.jobs_enqueued;
    }
    if (!shutting_down) NoteRejected(Rejection::kQueueFull);
    SendError(conn, header.request_id, header.verb,
              shutting_down ? WireStatus::kShuttingDown
                            : WireStatus::kQueueFull,
              shutting_down ? "server shutting down" : "job queue full",
              shutting_down ? 0 : request->admission.retry_after_ms);
    Finish(conn, *request);
  }
}

void FrameServer::RunnerLoop() {
  JobQueue::Job job;
  while (queue_.Pop(&job)) {
    if (JobQueue::Expired(job)) {
      job.expire();
    } else {
      job.run();
    }
    job = JobQueue::Job{};  // drop closures (ConnPtr refs) promptly
  }
}

void FrameServer::RunJob(const ConnPtr& conn, const Request& request) {
  const FrameHeader& header = request.header;
  // Queue wait = admission to pop, measured on the runner before any
  // decode work. Wall-clock observation only; never feeds back.
  const double wait_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    request.admitted_at)
          .count();
  h_queue_wait_->Observe(wait_seconds);
  obs::Tracer& tracer = obs::Tracer::Global();
  if (tracer.enabled()) {
    obs::TraceEvent event;
    event.name = "queue_wait";
    event.cat = "net";
    event.dur_us = wait_seconds * 1e6;
    event.ts_us = tracer.NowUs() - event.dur_us;
    event.request_id = header.request_id;
    event.tenant = request.tenant;
    event.verb = VerbName(header.verb);
    tracer.Record(std::move(event));
  }

  std::vector<std::uint8_t> response;
  {
    // Everything the handler runs — SessionManager submit closures,
    // pipeline phases, kernel scopes, shard forwards — inherits this
    // context (it is captured into cross-thread closures and re-installed
    // there), so every span the request produces carries its request_id.
    obs::TraceContext trace_ctx;
    trace_ctx.request_id = header.request_id;
    trace_ctx.tenant = request.tenant;
    trace_ctx.verb = VerbName(header.verb);
    trace_ctx.valid = true;
    obs::ScopedTraceContext scoped_trace(std::move(trace_ctx));
    obs::SpanScope verb_span(VerbName(header.verb), "net");
    try {
      response = handler_->Execute(header, request.tenant, request.payload);
    } catch (const std::exception& e) {
      // Job bodies may throw (dataset factories propagate through the
      // manager's futures); the connection must survive it.
      response = ErrorPayload(WireStatus::kInternal,
                              StrFormat("job threw: %s", e.what()));
    } catch (...) {
      response =
          ErrorPayload(WireStatus::kInternal, "job threw a non-exception");
    }
  }
  SendPayload(conn, header.request_id, header.verb, response);
}

void FrameServer::Finish(const ConnPtr& conn, const Request& request) {
  if (request.admission.release) request.admission.release();
  conn->inflight.fetch_sub(1);
}

void FrameServer::RecordFailureEvent(const char* name) {
  obs::Tracer& tracer = obs::Tracer::Global();
  if (!tracer.enabled()) return;
  obs::TraceEvent event;
  event.name = name;
  event.cat = "fault";
  event.ts_us = tracer.NowUs();
  event.dur_us = 0;
  tracer.Record(std::move(event));
}

void FrameServer::NoteFault(const char* point) {
  metrics_->Counter("net_faults_injected_total", {{"point", point}})->Inc();
  RecordFailureEvent(point);
}

void FrameServer::HandleHealth(const ConnPtr& conn,
                               const FrameHeader& header) {
  HealthResponseWire health;
  health.accepting = !stopping_.load();
  const std::size_t depth = queue_.size();
  health.shedding =
      options_.shed_queue_depth > 0 && depth >= options_.shed_queue_depth;
  health.open_connections = open_connections_.load();
  health.queued_jobs = static_cast<std::int32_t>(depth);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    health.rejected_shed = stats_.rejected_shed;
    health.idle_reaped = stats_.idle_reaped;
  }
  handler_->AddHealth(&health);
  WireWriter body;
  Encode(health, &body);
  SendPayload(conn, header.request_id, Verb::kHealth,
              ResponsePayload(ResponseEnvelope{}, &body));
}

void FrameServer::SendPayload(const ConnPtr& conn, std::uint64_t request_id,
                              Verb verb,
                              const std::vector<std::uint8_t>& payload) {
  FrameHeader header;
  header.verb = verb;
  header.request_id = request_id;
  header.payload_len = static_cast<std::uint32_t>(payload.size());

  if (conn->closed.load()) return;

  // Write-path fault injection: kError severs the connection before the
  // response (the client sees EOF and must reconnect + retry); kPartial
  // leaks a truncated frame prefix first (a mid-frame cut from the
  // client's perspective); kDelay stalls the write.
  fail::FaultAction fault;
  bool sever = false;
  std::size_t partial_bytes = 0;
  if (BLINKML_FAILPOINT("net.write_frame", &fault)) {
    NoteFault("net.write_frame");
    ApplyInjectedDelay(fault);
    if (fault.kind == fail::FaultKind::kError) {
      sever = true;
    } else if (fault.kind == fail::FaultKind::kPartial) {
      sever = true;
      partial_bytes = static_cast<std::size_t>(fault.arg);
    }
  }

  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->closed.load()) return;
  if (sever && partial_bytes > 0) {
    std::vector<std::uint8_t> frame(kFrameHeaderBytes + payload.size());
    EncodeFrameHeader(header, frame.data());
    std::memcpy(frame.data() + kFrameHeaderBytes, payload.data(),
                payload.size());
    // Best-effort single send of the truncated prefix (a fault
    // simulation; the bytes fitting the buffer is not load-bearing).
    (void)::send(conn->fd, frame.data(),
                 std::min(partial_bytes, frame.size()), MSG_NOSIGNAL);
  }
  if (!sever) {
    WriteOptions write_options;
    write_options.stall_timeout_ms = options_.write_stall_timeout_ms;
    bool stalled = false;
    if (WriteFrame(conn->fd, header, payload.data(), payload.size(),
                   write_options, &stalled)
            .ok()) {
      conn->last_activity_ms.store(NowMs());
      Count(&ServerStatsWire::responses_sent);
      return;
    }
    if (stalled) {
      Count(&ServerStatsWire::write_stalls);
      c_write_stalls_->Inc();
      RecordFailureEvent("write_stall");
    }
  }
  // Severed, stalled, or the peer is gone: shutdown(), not close() — the
  // fd number stays reserved until the last ConnPtr drops, but both
  // directions die now, so the client sees EOF and the IO thread reaps
  // the connection on its read event.
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->closed.store(true);
}

void FrameServer::SendError(const ConnPtr& conn, std::uint64_t request_id,
                            Verb verb, WireStatus status,
                            const std::string& message,
                            std::uint32_t retry_after_ms) {
  SendPayload(conn, request_id, verb,
              ErrorPayload(status, message, retry_after_ms));
}

}  // namespace net
}  // namespace blinkml
