#include "net/frame_server.h"

#include <errno.h>
#include <fcntl.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>
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
#include "runtime/runtime_options.h"
#include "util/failpoints.h"
#include "util/string_util.h"

namespace blinkml {
namespace net {

namespace {

constexpr int kListenBacklog = 64;
/// An empty receive buffer grows to this before a read.
constexpr std::size_t kReadChunk = 64 * 1024;
/// While a connection's unsent answers exceed this, the loop reads no
/// further frames from it: a client that pipelines requests without
/// reading the answers cannot grow the front's memory without bound.
constexpr std::size_t kMaxUnsentBytes = 4u << 20;
/// Answers gathered into one send.
constexpr int kMaxSendIovecs = 64;
/// A relay's first read: the reply's header and, usually, all of it.
constexpr std::size_t kRelayReadAhead = 16 * 1024;

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

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
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
  for (const Verb verb :
       {Verb::kRegisterDataset, Verb::kTrain, Verb::kSearch, Verb::kPredict,
        Verb::kStats, Verb::kEvictIdle, Verb::kMetrics}) {
    h_request_[static_cast<std::size_t>(verb)] = metrics_->Histogram(
        "net_request_seconds", {{"verb", VerbName(verb)}});
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
  runners_done_.store(false);
  wake_pending_.store(false);
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
  // The IO thread stops accepting and reading, so no new jobs arrive
  // after this point; it keeps writing answers and ending relays.
  stopping_.store(true);
  Wake();

  // Drain: runners keep popping until the queue empties, answering every
  // admitted job (run or expire) through the IO thread, then exit.
  queue_.Shutdown();
  for (std::thread& runner : runners_) runner.join();
  runners_.clear();

  // The loop returns once every relay has ended and every answer is
  // written (or its connection dropped).
  runners_done_.store(true);
  Wake();
  io_thread_.join();

  connections_.clear();
  pending_.clear();
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

void FrameServer::Wake() {
  // One byte in flight is enough: the loop clears the flag once it has
  // drained the pipe, and the next Wake writes again.
  if (wake_pending_.exchange(true)) return;
  const char byte = 'x';
  while (::write(wake_write_fd_, &byte, 1) < 0 && errno == EINTR) {
  }
}

void FrameServer::IoLoop() {
  std::vector<pollfd> poll_fds;
  // poll_fds[i]'s connection; null for the pipe, the listener and relays.
  std::vector<ConnPtr> polled;

  for (;;) {
    const bool stopping = stopping_.load();
    if (stopping && runners_done_.load() && relays_.empty()) {
      bool unsent = false;
      for (const auto& [fd, conn] : connections_) {
        unsent = unsent || !conn->out.empty();
      }
      std::lock_guard<std::mutex> lock(handoff_mu_);
      if (!unsent && handoffs_.empty()) break;
    }

    poll_fds.clear();
    polled.clear();
    poll_fds.push_back({wake_read_fd_, POLLIN, 0});
    polled.push_back(nullptr);
    if (!stopping) {
      poll_fds.push_back({listen_fd_, POLLIN, 0});
      polled.push_back(nullptr);
    }
    // The poll timeout is the time to the nearest write-stall or idle
    // deadline (otherwise block indefinitely — the wake pipe handles
    // answers and shutdown).
    const std::int64_t now = NowMs();
    std::int64_t nearest = -1;
    const auto deadline = [&](std::int64_t at) {
      const std::int64_t left = std::max<std::int64_t>(at - now, 0);
      nearest = nearest < 0 ? left : std::min(nearest, left);
    };
    for (const auto& [fd, conn] : connections_) {
      short events = 0;
      if (!stopping && !conn->relaying &&
          conn->out_bytes < kMaxUnsentBytes) {
        events |= POLLIN;
      }
      if (!conn->out.empty()) events |= POLLOUT;
      if (conn->write_blocked_ms > 0) {
        deadline(conn->write_blocked_ms + options_.write_stall_timeout_ms);
      }
      if (options_.idle_timeout_ms > 0 && conn->inflight.load() == 0 &&
          conn->out.empty()) {
        deadline(conn->last_activity_ms + options_.idle_timeout_ms);
      }
      if (events == 0) continue;
      poll_fds.push_back({fd, events, 0});
      polled.push_back(conn);
    }
    for (const auto& [fd, relay] : relays_) {
      poll_fds.push_back(
          {fd, static_cast<short>(relay.unsent_len > 0 ? POLLOUT : POLLIN),
           0});
      polled.push_back(nullptr);
    }

    const int ready = ::poll(poll_fds.data(), poll_fds.size(),
                             static_cast<int>(nearest));
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure; Stop() still returns
    }

    if (poll_fds[0].revents != 0) {
      // Drain, then re-arm: while the flag is set no Wake writes, so the
      // pipe holds only the byte of the Wake that set it. Clearing the
      // flag first could swallow a later Wake's byte and leave the flag
      // set with the pipe empty: a lost wakeup.
      char buf[64];
      while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
      }
      wake_pending_.store(false);
    }
    TakeHandoffs();
    std::size_t first = 1;
    if (!stopping) {
      if (poll_fds[1].revents != 0) AcceptConnections();
      first = 2;
    }
    for (std::size_t i = first; i < poll_fds.size(); ++i) {
      if (poll_fds[i].revents == 0) continue;
      if (polled[i] != nullptr) {
        Service(polled[i], /*read=*/true);
        continue;
      }
      // A relay, unless it ended earlier in this round (a reused fd
      // number only costs one would-block attempt).
      const auto it = relays_.find(poll_fds[i].fd);
      if (it != relays_.end()) ServiceRelay(it);
    }
    ServicePending();
    ReapConnections();
  }

  // Only a failed poll gets here with relays left: hand their sockets
  // back.
  while (!relays_.empty()) {
    EndRelay(relays_.begin(), Status::IOError("front stopped"));
  }
}

void FrameServer::TakeHandoffs() {
  std::vector<std::pair<ConnPtr, Outgoing>> taken;
  {
    std::lock_guard<std::mutex> lock(handoff_mu_);
    taken.swap(handoffs_);
  }
  for (auto& [conn, out] : taken) {
    if (conn->closed.load()) continue;
    conn->out_bytes += out.size();
    conn->out.push_back(std::move(out));
    pending_.push_back(std::move(conn));
  }
}

void FrameServer::ServicePending() {
  // Iterative, not recursive: servicing a connection can end a relay
  // (which queues the connection again) or start one.
  while (!pending_.empty()) {
    std::vector<ConnPtr> batch;
    batch.swap(pending_);
    for (const ConnPtr& conn : batch) {
      if (!conn->closed.load()) Service(conn, /*read=*/false);
    }
  }
}

void FrameServer::Service(const ConnPtr& conn, bool read) {
  if (conn->closed.load()) return;
  bool keep = Flush(*conn);
  if (keep && read && !stopping_.load() && !conn->relaying &&
      conn->out_bytes < kMaxUnsentBytes) {
    keep = Read(*conn);
  }
  if (keep) keep = ParseFrames(conn);
  if (keep) keep = Flush(*conn);
  // Queued jobs and relays of a closed connection still hold its ConnPtr;
  // their answers are dropped and the fd closes with the last reference.
  if (!keep) CloseConnection(conn);
}

bool FrameServer::Read(Connection& conn) {
  // Read-path fault injection: kError simulates the peer vanishing
  // mid-frame (teardown of exactly this connection); kPartial caps this
  // wakeup's read so frames arrive in deterministic dribbles, exercising
  // the incremental parser.
  std::size_t read_cap = 0;
  fail::FaultAction fault;
  if (BLINKML_FAILPOINT("net.read_frame", &fault)) {
    NoteFault("net.read_frame");
    ApplyInjectedDelay(fault);
    if (fault.kind == fail::FaultKind::kError) return false;
    if (fault.kind == fail::FaultKind::kPartial) {
      read_cap = static_cast<std::size_t>(
          std::max<std::uint64_t>(1, fault.arg));
    }
  }
  // Drop the parsed prefix first (usually all of it: a closed-loop
  // client's buffer holds no partial frame between requests).
  if (conn.in_start > 0) {
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<std::ptrdiff_t>(conn.in_start));
    conn.in_start = 0;
  }
  // Bytes land straight in the connection's buffer. ParseFrames sizes it
  // for a whole frame once the header is in, so a frame read into it is
  // never moved; one read per wakeup, because growing a full buffer
  // would copy it (poll is level-triggered and reports the rest).
  if (conn.in.size() == conn.in.capacity()) {
    conn.in.reserve(std::max(kReadChunk, 2 * conn.in.capacity()));
  }
  const std::size_t size = conn.in.size();
  std::size_t room = conn.in.capacity() - size;
  if (read_cap > 0) room = std::min(room, read_cap);
  conn.in.resize(size + room);
  ssize_t n;
  do {
    n = ::recv(conn.fd, conn.in.data() + size, room, 0);
  } while (n < 0 && errno == EINTR);
  const bool would_block = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  conn.in.resize(size + static_cast<std::size_t>(std::max<ssize_t>(n, 0)));
  if (n > 0) conn.last_activity_ms = NowMs();
  return n > 0 || would_block;  // else EOF or a hard error
}

bool FrameServer::ParseFrames(const ConnPtr& conn) {
  Connection& c = *conn;
  while (!c.relaying && !c.closed.load() && !stopping_.load() &&
         c.out_bytes < kMaxUnsentBytes &&
         c.in.size() - c.in_start >= kFrameHeaderBytes) {
    const std::uint8_t* frame = c.data() + c.in_start;
    FrameHeader header;
    const Status status = DecodeFrameHeader(frame, &header);
    if (!status.ok()) {
      // Unsynchronizable framing corruption: answer once, then close.
      Count(&ServerStatsWire::frames_received);
      NoteRejected(Rejection::kMalformed);
      SendError(conn, header.request_id, Verb::kError,
                WireStatus::kMalformedFrame, status.message());
      (void)Flush(c);
      return false;
    }
    const std::size_t frame_len = kFrameHeaderBytes + header.payload_len;
    if (c.in.size() - c.in_start < frame_len) {
      // Incomplete frame: size the buffer for all of it once instead of
      // regrowing (and recopying) it as the bytes arrive. The length is
      // capped by DecodeFrameHeader, and reserved pages stay untouched
      // until bytes land in them.
      c.in.reserve(c.in_start + frame_len);
      break;
    }
    c.in_start += frame_len;
    // The frame stays where it was read: inline execution reads it in
    // place, and a relay writes these very bytes.
    HandleFrame(conn, header, frame);
  }
  return true;
}

bool FrameServer::Flush(Connection& conn) {
  while (!conn.out.empty()) {
    // Gather the queued answers (from the unsent part of the first) into
    // one send; nothing queued behind a severing fault is written.
    iovec iov[kMaxSendIovecs];
    int count = 0;
    std::size_t skip = conn.out_sent;
    for (Outgoing& out : conn.out) {
      if (count + 2 > kMaxSendIovecs) break;
      if (skip < out.header_len) {
        iov[count++] = {out.header.data() + skip, out.header_len - skip};
        skip = 0;
      } else {
        skip -= out.header_len;
      }
      if (skip < out.bytes.size()) {
        iov[count++] = {out.bytes.data() + skip, out.bytes.size() - skip};
        skip = 0;
      } else {
        skip -= out.bytes.size();
      }
      if (out.sever) break;
    }
    if (count == 0) return false;  // an empty severing fault is next
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(count);
    const ssize_t n =
        ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (conn.write_blocked_ms == 0) conn.write_blocked_ms = NowMs();
        return true;  // POLLOUT resumes
      }
      return false;  // the peer is gone
    }
    conn.last_activity_ms = NowMs();
    conn.write_blocked_ms = 0;
    conn.out_bytes -= static_cast<std::size_t>(n);
    conn.out_sent += static_cast<std::size_t>(n);
    while (!conn.out.empty() && conn.out_sent >= conn.out.front().size()) {
      Outgoing& done = conn.out.front();
      if (done.sever) return false;
      conn.out_sent -= done.size();
      Count(&ServerStatsWire::responses_sent);
      if (done.request_seconds != nullptr) {
        done.request_seconds->Observe(SecondsSince(done.admitted_at));
      }
      conn.out.pop_front();
    }
  }
  return true;
}

void FrameServer::ReapConnections() {
  const std::int64_t now = NowMs();
  for (auto it = connections_.begin(); it != connections_.end();) {
    const ConnPtr conn = it->second;
    ++it;
    if (conn->write_blocked_ms > 0 &&
        now - conn->write_blocked_ms >= options_.write_stall_timeout_ms) {
      // The client stopped draining its socket: drop it (it sees EOF).
      Count(&ServerStatsWire::write_stalls);
      c_write_stalls_->Inc();
      RecordFailureEvent("write_stall");
      CloseConnection(conn);
    } else if (options_.idle_timeout_ms > 0 && conn->inflight.load() == 0 &&
               conn->out.empty() &&
               now - conn->last_activity_ms >= options_.idle_timeout_ms) {
      Count(&ServerStatsWire::idle_reaped);
      c_idle_reaped_->Inc();
      RecordFailureEvent("idle_reap");
      CloseConnection(conn);
    }
  }
}

void FrameServer::CloseConnection(const ConnPtr& conn) {
  if (conn->closed.exchange(true)) return;
  // shutdown(), not close(): the fd number stays reserved until the last
  // ConnPtr drops, but both directions die now, so the client sees EOF.
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->out.clear();
  conn->out_bytes = 0;
  conn->out_sent = 0;
  conn->write_blocked_ms = 0;
  connections_.erase(conn->fd);
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
      FrameHeader reject;
      reject.verb = Verb::kError;
      Outgoing out = Answer(
          reject, ErrorPayload(WireStatus::kOverloaded,
                               StrFormat("connection limit (%d) reached",
                                         options_.max_connections),
                               options_.shed_retry_ms));
      out.sever = true;
      // One non-blocking attempt (a fresh connection's socket buffer
      // always holds one small frame); the fd closes with `rejected`.
      Connection rejected(fd);
      rejected.out_bytes = out.size();
      rejected.out.push_back(std::move(out));
      (void)Flush(rejected);
      continue;
    }
    auto conn = std::make_shared<Connection>(fd);
    conn->last_activity_ms = NowMs();
    connections_.emplace(fd, std::move(conn));
    open_connections_.fetch_add(1);
  }
}

void FrameServer::HandleFrame(const ConnPtr& conn, const FrameHeader& header,
                              const std::uint8_t* frame) {
  const std::uint8_t* payload = frame + kFrameHeaderBytes;
  const std::size_t size = header.payload_len;
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
  const Status peek = PeekTenant(payload, size, &tenant);
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

  Admission admission = handler_->Admit(header, tenant, payload, size);
  if (admission.status != WireStatus::kOk) {
    NoteRejected(admission.reason);
    SendError(conn, header.request_id, header.verb, admission.status,
              admission.message, admission.retry_after_ms);
    return;
  }

  // Admitted: this is where the request's observable life begins (the
  // net_requests_total counter, net_request_seconds and, under tracing,
  // the queue_wait span — see the header comment).
  metrics_
      ->Counter("net_requests_total",
                {{"tenant", tenant}, {"verb", VerbName(header.verb)}})
      ->Inc();
  const JobQueue::SteadyTime admitted_at = std::chrono::steady_clock::now();

  // A small Predict runs on this thread. Its payload size bounds the
  // work whatever its shape: features, theta and strings alike.
  if (header.verb == Verb::kPredict &&
      size < kInlinePredictValues * sizeof(double)) {
    RunInline(conn, header, std::move(tenant), frame, std::move(admission),
              admitted_at);
    return;
  }

  JobQueue::Job job;
  job.priority = header.priority;
  job.enqueued = admitted_at;
  if (header.deadline_ms > 0) {
    job.has_deadline = true;
    job.deadline = job.enqueued + std::chrono::milliseconds(header.deadline_ms);
  }
  auto request = std::make_shared<Request>(
      Request{header, std::move(tenant),
              std::vector<std::uint8_t>(payload, payload + size),
              std::move(admission), admitted_at});
  // The run/expire closures each end in Finish; they are mutually
  // exclusive by construction (the runner calls one or the other).
  job.run = [this, conn, request] {
    RunJob(conn, *request);
    Finish(conn, *request);
  };
  job.expire = [this, conn, request] {
    NoteRejected(Rejection::kDeadline);
    HandOff(conn,
            Answer(request->header,
                   ErrorPayload(WireStatus::kDeadlineExceeded,
                                StrFormat("deadline (%u ms) expired before "
                                          "execution",
                                          static_cast<unsigned>(
                                              request->header.deadline_ms))),
                   &request->admitted_at));
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
    Send(conn, Answer(header,
                      ErrorPayload(shutting_down ? WireStatus::kShuttingDown
                                                 : WireStatus::kQueueFull,
                                   shutting_down ? "server shutting down"
                                                 : "job queue full",
                                   shutting_down
                                       ? 0
                                       : request->admission.retry_after_ms),
                      &admitted_at));
    Finish(conn, *request);
  }
}

void FrameServer::RunInline(const ConnPtr& conn, const FrameHeader& header,
                            std::string tenant, const std::uint8_t* frame,
                            Admission admission,
                            JobQueue::SteadyTime admitted_at) {
  InlineAnswer answer;
  {
    obs::TraceContext trace_ctx;
    trace_ctx.request_id = header.request_id;
    trace_ctx.tenant = tenant;
    trace_ctx.verb = VerbName(header.verb);
    trace_ctx.valid = true;
    obs::ScopedTraceContext scoped_trace(std::move(trace_ctx));
    obs::SpanScope verb_span(VerbName(header.verb), "net");
    // The IO thread never waits on the runtime pool: parallel regions
    // run their chunks here, in the same layout, so the bits match a
    // runner's.
    RuntimeOptions serial;
    serial.num_threads = 1;
    const RuntimeScope runtime(serial);
    try {
      answer = handler_->ExecuteInline(header, tenant,
                                       frame + kFrameHeaderBytes,
                                       header.payload_len);
    } catch (const std::exception& e) {
      answer = InlineAnswer{ErrorPayload(
          WireStatus::kInternal, StrFormat("inline job threw: %s", e.what()))};
    } catch (...) {
      answer = InlineAnswer{
          ErrorPayload(WireStatus::kInternal, "inline job threw")};
    }
  }
  if (answer.relay_fd < 0) {
    if (admission.release) admission.release();
    Send(conn, Answer(header, std::move(answer.payload), &admitted_at));
    return;
  }

  Relay relay;
  relay.conn = conn;
  relay.header = header;
  relay.tenant = std::move(tenant);
  relay.admission = std::move(admission);
  relay.admitted_at = admitted_at;
  obs::Tracer& tracer = obs::Tracer::Global();
  if (tracer.enabled()) relay.started_us = tracer.NowUs();
  relay.unsent = frame;
  relay.unsent_len = kFrameHeaderBytes + header.payload_len;
  conn->relaying = true;
  conn->inflight.fetch_add(1);
  const int fd = answer.relay_fd;
  // Most requests fit the socket buffer at once; the rest resume on
  // POLLOUT.
  ServiceRelay(relays_.emplace(fd, std::move(relay)).first);
}

void FrameServer::ServiceRelay(RelayMap::iterator it) {
  const int fd = it->first;
  Relay& relay = it->second;
  while (relay.unsent_len > 0) {
    const ssize_t n = ::send(fd, relay.unsent, relay.unsent_len,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      relay.unsent += n;
      relay.unsent_len -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    EndRelay(it, Status::IOError(StrFormat("relay send: %s",
                                           ::strerror(errno))));
    return;
  }
  for (;;) {
    if (relay.reply.empty()) relay.reply.resize(kRelayReadAhead);
    const ssize_t n = ::recv(fd, relay.reply.data() + relay.received,
                             relay.reply.size() - relay.received, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      EndRelay(it, Status::IOError(
                       n == 0 ? std::string("relay: connection closed by peer")
                              : StrFormat("relay recv: %s",
                                          ::strerror(errno))));
      return;
    }
    relay.received += static_cast<std::size_t>(n);
    if (relay.received < kFrameHeaderBytes) continue;
    FrameHeader reply;
    Status status = DecodeFrameHeader(relay.reply.data(), &reply);
    const std::size_t frame_len = kFrameHeaderBytes + reply.payload_len;
    if (status.ok() && (reply.request_id != relay.header.request_id ||
                        relay.received > frame_len)) {
      status = Status::IOError(StrFormat(
          "relay desync: sent id %llu, got id %llu",
          static_cast<unsigned long long>(relay.header.request_id),
          static_cast<unsigned long long>(reply.request_id)));
    }
    if (!status.ok()) {
      EndRelay(it, status);
      return;
    }
    relay.reply.resize(frame_len);
    if (relay.received == frame_len) {
      EndRelay(it, Status::OK());
      return;
    }
  }
}

void FrameServer::EndRelay(RelayMap::iterator it, const Status& status) {
  const int fd = it->first;
  Relay relay = std::move(it->second);
  relays_.erase(it);
  // The socket goes back to the handler before anything else can reuse
  // its fd number.
  std::vector<std::uint8_t> answer = handler_->EndRelay(fd, status);
  if (relay.admission.release) relay.admission.release();
  obs::Tracer& tracer = obs::Tracer::Global();
  if (relay.started_us > 0 && tracer.enabled()) {
    obs::TraceEvent event;
    event.name = "relay";
    event.cat = "net";
    event.ts_us = relay.started_us;
    event.dur_us = tracer.NowUs() - relay.started_us;
    event.request_id = relay.header.request_id;
    event.tenant = relay.tenant;
    event.verb = VerbName(relay.header.verb);
    tracer.Record(std::move(event));
  }
  Connection& conn = *relay.conn;
  conn.relaying = false;
  conn.inflight.fetch_sub(1);
  if (status.ok()) {
    // The reply frame is the answer, byte for byte.
    Outgoing out;
    out.bytes = std::move(relay.reply);
    out.request_seconds = h_request_[static_cast<std::size_t>(
        relay.header.verb)];
    out.admitted_at = relay.admitted_at;
    Send(relay.conn, std::move(out));
  } else {
    Send(relay.conn,
         Answer(relay.header, std::move(answer), &relay.admitted_at));
  }
  // The connection's next frames waited behind this one.
  pending_.push_back(std::move(relay.conn));
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
  const double wait_seconds = SecondsSince(request.admitted_at);
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
    // Everything the handler runs — SessionManager jobs, pipeline phases,
    // kernel scopes, shard forwards — runs on this thread under this
    // context, and search lanes capture it and re-install it on pool
    // threads, so every span the request produces carries its request_id.
    obs::TraceContext trace_ctx;
    trace_ctx.request_id = header.request_id;
    trace_ctx.tenant = request.tenant;
    trace_ctx.verb = VerbName(header.verb);
    trace_ctx.valid = true;
    obs::ScopedTraceContext scoped_trace(std::move(trace_ctx));
    obs::SpanScope verb_span(VerbName(header.verb), "net");
    try {
      response = handler_->Execute(header, request.tenant,
                                   request.payload.data(),
                                   request.payload.size());
    } catch (const std::exception& e) {
      // Job bodies may throw (a dataset factory's exception propagates
      // out of SessionManager::Train); the connection must survive it.
      response = ErrorPayload(WireStatus::kInternal,
                              StrFormat("job threw: %s", e.what()));
    } catch (...) {
      response =
          ErrorPayload(WireStatus::kInternal, "job threw a non-exception");
    }
  }
  HandOff(conn, Answer(header, std::move(response), &request.admitted_at));
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
  Send(conn, Answer(header, ResponsePayload(ResponseEnvelope{}, &body)));
}

FrameServer::Outgoing FrameServer::Answer(
    const FrameHeader& request, std::vector<std::uint8_t> payload,
    const JobQueue::SteadyTime* admitted_at) {
  FrameHeader header;
  header.verb = request.verb;
  header.request_id = request.request_id;
  header.payload_len = static_cast<std::uint32_t>(payload.size());
  Outgoing out;
  EncodeFrameHeader(header, out.header.data());
  out.header_len = kFrameHeaderBytes;
  out.bytes = std::move(payload);
  if (admitted_at != nullptr) {
    out.request_seconds = h_request_[static_cast<std::size_t>(request.verb)];
    out.admitted_at = *admitted_at;
  }
  return out;
}

void FrameServer::InjectWriteFault(Outgoing* out) {
  // Write-path fault injection: kError severs the connection before the
  // answer (the client sees EOF and must reconnect + retry); kPartial
  // leaks a truncated frame prefix first (a mid-frame cut from the
  // client's perspective); kDelay stalls the thread that produced it.
  fail::FaultAction fault;
  if (!BLINKML_FAILPOINT("net.write_frame", &fault)) return;
  NoteFault("net.write_frame");
  ApplyInjectedDelay(fault);
  if (fault.kind == fail::FaultKind::kError) {
    out->header_len = 0;
    out->bytes.clear();
    out->sever = true;
  } else if (fault.kind == fail::FaultKind::kPartial) {
    std::vector<std::uint8_t> prefix(out->header.begin(),
                                     out->header.begin() + out->header_len);
    prefix.insert(prefix.end(), out->bytes.begin(), out->bytes.end());
    prefix.resize(std::min<std::size_t>(prefix.size(), fault.arg));
    out->header_len = 0;
    out->bytes = std::move(prefix);
    out->sever = true;
  }
}

void FrameServer::Send(const ConnPtr& conn, Outgoing out) {
  if (conn->closed.load()) return;
  InjectWriteFault(&out);
  conn->out_bytes += out.size();
  conn->out.push_back(std::move(out));
}

void FrameServer::HandOff(const ConnPtr& conn, Outgoing out) {
  if (conn->closed.load()) return;
  InjectWriteFault(&out);
  {
    std::lock_guard<std::mutex> lock(handoff_mu_);
    handoffs_.emplace_back(conn, std::move(out));
  }
  Wake();
}

void FrameServer::SendError(const ConnPtr& conn, std::uint64_t request_id,
                            Verb verb, WireStatus status,
                            const std::string& message,
                            std::uint32_t retry_after_ms) {
  FrameHeader header;
  header.verb = verb;
  header.request_id = request_id;
  Send(conn, Answer(header, ErrorPayload(status, message, retry_after_ms)));
}

}  // namespace net
}  // namespace blinkml
