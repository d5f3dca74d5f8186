// FrameServer: the one connection core behind both serving fronts.
//
// BlinkServer (net/server.h) and ShardRouter (shard/router.h) speak the
// framed wire protocol (net/protocol.h) through this class. It owns
// everything about connections: a TCP or Unix-domain listener, one IO
// thread multiplexing accept, reads and writes over poll(), the
// connection table and its cap, a priority job queue with per-request
// deadlines (net/job_queue.h) drained by a few runner threads,
// queue-depth load shedding, idle reaping, the write-stall timeout, the
// net.* failpoints, the net_* metrics, the inline Health answer and the
// choice of which frames run inline. A FrameHandler supplies only what
// differs between the fronts: whether to admit a frame, how to execute it
// (on a runner, or on the IO thread), and a few Health fields.
//
// Request path:
//   IO thread: read into the connection's buffer -> parse frame ->
//              version/verb checks -> peek tenant -> shed ->
//              FrameHandler::Admit -> then either
//     inline:  FrameHandler::ExecuteInline on the IO thread, against the
//              payload where it was read, under the request's
//              TraceContext and verb span with parallel regions on one
//              lane (same chunk layout, same bits, no pool handoff) ->
//              answer;
//              or a relay: the handler lends a connected non-blocking
//              socket, the loop writes the frame's bytes to it unchanged,
//              watches it in the same poll set and passes the reply frame
//              on unchanged
//     runner:  enqueue (priority + deadline) -> deadline check ->
//              FrameHandler::Execute under the request's TraceContext and
//              verb span -> answer handed back to the IO thread
//
// Health and a small Predict (a payload under kInlinePredictValues
// doubles) never touch the job queue, so they are answered while every
// runner is busy. Everything else keeps the runner path: its queue is
// what load shedding, the queue bound and deadlines protect.
//
// Failure containment: every malformed input is answered with an error
// frame and NEVER kills the server loop. Bad version, unknown verb, and
// tenant-peek failures keep the connection alive; only unsynchronizable
// framing corruption (bad magic, payload above the cap) closes that one
// connection — the listener and every other connection are unaffected.
// Expired-deadline jobs are rejected with kDeadlineExceeded before
// execution; shed and handler-rejected frames are answered at enqueue
// with a retry-after hint. Neither disturbs jobs already running.
//
// Writes: the IO thread is the only writer of the sockets it polls. Each
// connection queues whole response frames (runners hand theirs to the
// loop), and the loop drains the queue with gathered non-blocking sends,
// resuming on POLLOUT, so frames never interleave and no thread ever
// waits on a socket. A client that stops draining its socket costs no
// thread: once its queued answers make no progress for the write-stall
// timeout, that one connection is shut down (the client sees EOF). While
// a connection's unsent answers exceed a bound, or one of its frames is
// being relayed, the loop reads no further frames from it.
//
// Observability (obs/trace.h, obs/metrics.h): a request's spans start at
// ADMISSION, not at the socket read — pre-admission work (frame parse,
// version/verb checks, tenant peek, shed, handler admission) is
// queue-position-dependent bookkeeping measured only by counters. A
// runner's first act on pop is to close the "queue_wait" span (enqueue
// -> pop) and feed net_queue_wait_seconds; inline frames never queue, so
// they never count there. Execution then runs under the request's
// TraceContext (request_id/tenant/verb from the frame header) inside the
// verb span, which everything the handler does nests under and tags with
// the same request_id; a relay adds a "relay" span. Every admitted
// request feeds net_request_seconds{verb=...} from admission to the
// moment the last byte of its answer is written. Rejected frames never
// open spans; they bump net_rejected_total{reason=...} and the matching
// ServerStatsWire counter. The resilience failure paths (shed,
// connection cap, idle reap, write stall, injected faults) also add a
// zero-duration "fault"-category trace event. Every net_* metric lives in
// the registry the owner passes in (the SessionManager's for
// BlinkServer, the router's own for ShardRouter).

#ifndef BLINKML_NET_FRAME_SERVER_H_
#define BLINKML_NET_FRAME_SERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/codec.h"
#include "net/job_queue.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace blinkml {
namespace net {

/// Default for FrontOptions::write_stall_timeout_ms (tens of seconds:
/// multi-MB answers routinely overrun kernel socket buffers, so waiting
/// on POLLOUT is normal operation; only a client that stops draining
/// entirely should lose its connection).
inline constexpr int kDefaultWriteStallTimeoutMs = 30000;

/// A Predict whose payload is smaller than this many doubles (32 KB) runs
/// on the IO thread instead of a runner, on both fronts. The one bound
/// covers the features (rows x dim doubles), the model's theta and the
/// strings together. Rows cost more than features (each adds a label, a
/// prediction and an answer double), so the costliest Predict under the
/// bound has one feature per row: 4000 x 1 holds a worker's IO thread for
/// 22-40 us at the median and 30-66 us at p99 (its verb span over 2000
/// calls, 4-vCPU shared VM), and 39 x 100 for 4-5 us.
inline constexpr std::size_t kInlinePredictValues = std::size_t{1} << 12;

/// Listener and overload limits shared by every serving front.
struct FrontOptions {
  /// Non-empty: listen on this Unix-domain socket path (an existing file
  /// at the path is replaced). Empty: listen on TCP host:port.
  std::string unix_path;
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  int port = 0;
  /// Runner threads executing admitted jobs, one job at a time each: a
  /// SessionManager Train or Search runs on the runner itself, and a
  /// forward to a shard worker blocks it until the worker answers.
  int runner_threads = 2;
  /// Bound on queued (admitted, not yet running) jobs; pushes beyond it
  /// are rejected with kQueueFull. 0 = unbounded.
  std::size_t max_queued_jobs = 1024;
  /// Cap on concurrently open connections. A connection accepted past the
  /// cap gets one structured kOverloaded error frame (with a retry-after
  /// hint) and is closed before it can send anything. 0 = unlimited.
  int max_connections = 0;
  /// Load-shed high-water mark: while the queue holds at least this many
  /// jobs, new requests are rejected before admission with kOverloaded
  /// and a shed_retry_ms hint (cheaper than admitting work the queue will
  /// only age out, and it keeps rejection latency flat under overload).
  /// 0 = off.
  std::size_t shed_queue_depth = 0;
  /// Retry-after hint on shed/connection-cap rejections.
  std::uint32_t shed_retry_ms = 50;
  /// Connections with no traffic and no in-flight jobs for this long are
  /// reaped by the IO loop (poll timeout is derived from the nearest
  /// deadline, so reaping needs no extra thread). 0 = never.
  int idle_timeout_ms = 0;
  /// How long a connection's queued answers may make no progress on a
  /// full send buffer before the connection is dropped (stalls count
  /// net_write_stalls_total).
  int write_stall_timeout_ms = kDefaultWriteStallTimeoutMs;
};

/// Why a front turned a frame away: selects the net_rejected_total
/// {reason=} label and the ServerStatsWire counter the rejection bumps.
enum class Rejection {
  kMalformed,
  kVersion,
  kUnknownVerb,
  kDecode,
  kDeadline,
  kRate,
  kQuota,
  kQueueFull,
  kShed,
  kMaxConnections,
};

/// A handler's verdict on one frame (FrameHandler::Admit).
struct Admission {
  /// kOk admits the frame; anything else is answered as the rejection.
  WireStatus status = WireStatus::kOk;
  std::string message;
  /// The rejection's retry-after hint; for an admitted frame, the hint on
  /// the kQueueFull answer should the job queue refuse it.
  std::uint32_t retry_after_ms = 0;
  /// Counted when the frame is rejected.
  Rejection reason = Rejection::kDecode;
  /// Admitted frames only (optional): runs exactly once when the frame
  /// leaves the front — executed, expired, or refused by the queue — to
  /// release whatever Admit charged.
  std::function<void()> release;
};

/// A handler's answer to a frame it runs on the IO thread
/// (FrameHandler::ExecuteInline).
struct InlineAnswer {
  /// The response payload; unused for a relay.
  std::vector<std::uint8_t> payload;
  /// >= 0: relay the frame instead. This is a connected non-blocking
  /// socket that the front writes the request frame to, byte for byte,
  /// and reads one reply frame back from, all from its IO loop; the reply
  /// frame is the answer. The socket is lent until FrameHandler::EndRelay.
  int relay_fd = -1;
};

/// What a serving front does with the frames FrameServer parses.
class FrameHandler {
 public:
  /// IO thread, after the front's own checks passed; must not block.
  /// `tenant` is the payload's leading field, already peeked.
  virtual Admission Admit(const FrameHeader& header, const std::string& tenant,
                          const std::uint8_t* payload, std::size_t size) = 0;

  /// Runner thread: executes an admitted frame and returns the response
  /// payload (a ResponseEnvelope, then the verb body on kOk). Runs under
  /// the request's TraceContext. An exception becomes a kInternal answer.
  virtual std::vector<std::uint8_t> Execute(const FrameHeader& header,
                                            const std::string& tenant,
                                            const std::uint8_t* payload,
                                            std::size_t size) = 0;

  /// IO thread, for an admitted Predict under kInlinePredictValues:
  /// answers now, or lends a socket to relay the frame over. Runs under
  /// the request's TraceContext with parallel regions on one lane, and
  /// must not wait on a socket, a worker or the pool. The default answers
  /// with Execute.
  virtual InlineAnswer ExecuteInline(const FrameHeader& header,
                                     const std::string& tenant,
                                     const std::uint8_t* payload,
                                     std::size_t size) {
    return InlineAnswer{Execute(header, tenant, payload, size)};
  }

  /// IO thread: the relay over `fd` ended, and the socket is the
  /// handler's again. `status` is OK when the reply frame came back for
  /// the request's id (the front passes it on unchanged); otherwise the
  /// transport failed and the returned payload is the answer.
  virtual std::vector<std::uint8_t> EndRelay(int fd, const Status& status) {
    (void)fd;
    (void)status;
    return {};
  }

  /// IO thread: adds front-specific fields to a Health answer whose
  /// connection and queue fields the FrameServer already filled.
  virtual void AddHealth(HealthResponseWire* health) { (void)health; }

 protected:
  /// Handlers are owned as what they are, never through this interface.
  ~FrameHandler() = default;
};

/// Response payload: `envelope`, then `body` when given.
std::vector<std::uint8_t> ResponsePayload(const ResponseEnvelope& envelope,
                                          const WireWriter* body = nullptr);

/// Response payload of a failed request: an envelope with no body.
std::vector<std::uint8_t> ErrorPayload(WireStatus status,
                                       const std::string& message,
                                       std::uint32_t retry_after_ms = 0);

class FrameServer {
 public:
  /// `handler` and `metrics` must outlive the server; `handler` is only
  /// called between Start() and the end of Stop().
  FrameServer(const FrontOptions& options, FrameHandler* handler,
              obs::Registry* metrics);

  /// Stops and joins (drains queued jobs first).
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds the listener and starts the IO + runner threads.
  Status Start();

  /// Idempotent. Stops accepting and reading, drains the job queue
  /// (every admitted job runs or expires), waits out every relay in
  /// flight, writes every answer (or drops its connection after the
  /// write-stall timeout), joins all threads, closes every connection.
  void Stop();

  /// The bound TCP port (after Start; 0 for Unix listeners).
  int port() const { return port_; }

  /// The front's counters, with the live connection count and queue
  /// depth.
  ServerStatsWire stats() const;

  /// Refreshes the sampled gauges (net_queued_jobs, net_open_connections)
  /// before a Metrics snapshot.
  void SampleGauges();

  /// Counts a rejection decided outside the admission path (e.g. during
  /// execution) the same way the front counts its own.
  void NoteRejected(Rejection reason);

 private:
  /// One answer on its way out: an encoded header and payload, or (no
  /// header) a whole frame passed on unchanged.
  struct Outgoing {
    std::array<std::uint8_t, kFrameHeaderBytes> header{};
    std::size_t header_len = 0;
    std::vector<std::uint8_t> bytes;
    /// Drop the connection once this is written (an injected write
    /// fault; nothing queued behind it is written).
    bool sever = false;
    /// Admitted requests: net_request_seconds{verb=} is observed from
    /// `admitted_at` when the last byte leaves.
    obs::Histogram* request_seconds = nullptr;
    JobQueue::SteadyTime admitted_at;

    std::size_t size() const { return header_len + bytes.size(); }
  };

  /// Receive buffer whose growth leaves the new bytes uninitialized:
  /// recv writes straight into it.
  struct NoInitByte {
    std::uint8_t value;
    NoInitByte() {}  // NOLINT: deliberately leaves `value` unset
  };
  static_assert(sizeof(NoInitByte) == 1, "a byte per byte");

  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();
    const int fd;
    // IO thread only.
    /// Received bytes; [in_start, in.size()) are not parsed yet.
    std::vector<NoInitByte> in;
    std::size_t in_start = 0;
    /// Answers not yet fully written; `out_sent` bytes of the first are.
    std::deque<Outgoing> out;
    std::size_t out_sent = 0;
    /// Unsent bytes over all of `out`.
    std::size_t out_bytes = 0;
    /// Since when queued answers have made no progress on a full send
    /// buffer (0: not blocked).
    std::int64_t write_blocked_ms = 0;
    /// One of its frames is being relayed: the frame's bytes stay in `in`
    /// and no later frame is parsed until the relay ends.
    bool relaying = false;
    /// Last read/write on this connection (steady-clock ms).
    std::int64_t last_activity_ms = 0;
    // Shared with runners.
    std::atomic<bool> closed{false};
    /// Admitted-but-unanswered jobs and relays. The idle reaper never
    /// closes a connection that is only "idle" because its job is still
    /// running.
    std::atomic<int> inflight{0};

    const std::uint8_t* data() const {
      return reinterpret_cast<const std::uint8_t*>(in.data());
    }
  };
  using ConnPtr = std::shared_ptr<Connection>;

  /// One admitted frame, shared by its job's run and expire closures.
  struct Request {
    FrameHeader header;
    std::string tenant;
    std::vector<std::uint8_t> payload;
    Admission admission;
    JobQueue::SteadyTime admitted_at;
  };

  /// A frame relayed over a handler's socket (IO thread only).
  struct Relay {
    ConnPtr conn;
    FrameHeader header;
    std::string tenant;
    Admission admission;
    JobQueue::SteadyTime admitted_at;
    /// Trace clock at the start (0 when tracing was off).
    double started_us = 0;
    /// Request bytes not yet written (inside conn->in).
    const std::uint8_t* unsent = nullptr;
    std::size_t unsent_len = 0;
    /// The reply frame; `received` bytes of it have arrived.
    std::vector<std::uint8_t> reply;
    std::size_t received = 0;
  };
  using RelayMap = std::unordered_map<int, Relay>;

  /// Binds + listens, and opens the IO loop's wake pipe.
  Status Listen();
  /// Closes what Listen opened.
  void CloseListener();
  void IoLoop();
  void AcceptConnections();
  void RunnerLoop();

  /// Wakes the IO loop's poll().
  void Wake();
  /// Moves the runners' answers onto their connections' queues.
  void TakeHandoffs();
  /// One round of work on a connection: write, read (when `read`), parse,
  /// write. Closes it on a hang-up, an error or framing corruption.
  void Service(const ConnPtr& conn, bool read);
  /// Services the connections that answers or ended relays touched.
  void ServicePending();
  /// Reads what the socket holds into conn.in; false on EOF or error.
  bool Read(Connection& conn);
  /// Parses and handles complete frames from conn.in; false when the
  /// connection must close (framing corruption).
  bool ParseFrames(const ConnPtr& conn);
  /// Writes queued answers until the socket would block; false when the
  /// connection must close.
  bool Flush(Connection& conn);
  /// Drops connections whose writes stalled, then idle ones.
  void ReapConnections();

  /// Front checks + handler admission, then inline execution or enqueue
  /// (IO thread). `frame` points at the header; the payload follows.
  void HandleFrame(const ConnPtr& conn, const FrameHeader& header,
                   const std::uint8_t* frame);
  /// Runs an admitted inline frame on the IO thread.
  void RunInline(const ConnPtr& conn, const FrameHeader& header,
                 std::string tenant, const std::uint8_t* frame,
                 Admission admission, JobQueue::SteadyTime admitted_at);
  /// Writes the request (when POLLOUT allowed it) and reads the reply of
  /// one relay, ending it on a full reply or a transport failure.
  void ServiceRelay(RelayMap::iterator it);
  void EndRelay(RelayMap::iterator it, const Status& status);

  /// Runner: queue-wait accounting, then Execute under the request's
  /// trace context, then the answer.
  void RunJob(const ConnPtr& conn, const Request& request);

  /// Releases the admission charge and the connection's in-flight mark.
  void Finish(const ConnPtr& conn, const Request& request);

  /// Answers a Health probe inline on the IO thread (no admission, no
  /// queue hop — probes must work while the front sheds or drains).
  void HandleHealth(const ConnPtr& conn, const FrameHeader& header);

  /// Bumps one ServerStatsWire counter.
  void Count(std::uint64_t ServerStatsWire::*counter);

  /// Zero-duration "fault"-category trace event (`name` must be a string
  /// literal).
  void RecordFailureEvent(const char* name);
  /// Injected-fault bookkeeping: net_faults_injected_total{point=...} +
  /// a failure trace event.
  void NoteFault(const char* point);

  /// An answer frame. `admitted_at` (admitted requests only) starts its
  /// net_request_seconds observation.
  Outgoing Answer(const FrameHeader& request, std::vector<std::uint8_t> payload,
                  const JobQueue::SteadyTime* admitted_at = nullptr);
  /// Applies the net.write_frame failpoint to an answer about to be
  /// queued (on the thread that produced it).
  void InjectWriteFault(Outgoing* out);
  /// IO thread: queues an answer on its connection.
  void Send(const ConnPtr& conn, Outgoing out);
  /// Runner: hands an answer to the IO thread.
  void HandOff(const ConnPtr& conn, Outgoing out);
  void SendError(const ConnPtr& conn, std::uint64_t request_id, Verb verb,
                 WireStatus status, const std::string& message,
                 std::uint32_t retry_after_ms = 0);

  /// Drops a connection the IO thread owns: shut down now, the fd closes
  /// with its last reference.
  void CloseConnection(const ConnPtr& conn);

  const FrontOptions options_;
  FrameHandler* const handler_;
  obs::Registry* const metrics_;

  JobQueue queue_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  /// Set by Stop once the runners exited: the loop may finish.
  std::atomic<bool> runners_done_{false};
  std::atomic<bool> wake_pending_{false};
  bool started_ = false;

  // IO thread only.
  /// Connection table (fd -> connection).
  std::unordered_map<int, ConnPtr> connections_;
  /// Relays in flight, by the handler's socket.
  RelayMap relays_;
  /// Connections with new answers or a just-ended relay.
  std::vector<ConnPtr> pending_;

  std::atomic<int> open_connections_{0};

  /// Runner answers waiting for the IO thread.
  std::mutex handoff_mu_;
  std::vector<std::pair<ConnPtr, Outgoing>> handoffs_;

  mutable std::mutex stats_mu_;
  ServerStatsWire stats_;

  // Hot-path metrics, resolved once here (pointers are stable; see
  // obs/metrics.h).
  obs::Histogram* const h_queue_wait_;
  /// net_request_seconds{verb=}, indexed by Verb.
  std::array<obs::Histogram*, static_cast<std::size_t>(Verb::kHealth) + 1>
      h_request_{};
  obs::Gauge* const g_queued_jobs_;
  obs::Gauge* const g_open_connections_;
  obs::Counter* const c_write_stalls_;
  obs::Counter* const c_idle_reaped_;
  std::vector<obs::Counter*> c_rejected_;

  std::thread io_thread_;
  std::vector<std::thread> runners_;
};

}  // namespace net
}  // namespace blinkml

#endif  // BLINKML_NET_FRAME_SERVER_H_
