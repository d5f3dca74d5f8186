// FrameServer: the one connection core behind both serving fronts.
//
// BlinkServer (net/server.h) and ShardRouter (shard/router.h) speak the
// framed wire protocol (net/protocol.h) through this class. It owns
// everything about connections: a TCP or Unix-domain listener, one IO
// thread multiplexing accept + reads over poll(), the connection table
// and its cap, a priority job queue with per-request deadlines
// (net/job_queue.h) drained by a few runner threads, queue-depth load
// shedding, idle reaping, the non-blocking write path with its stall
// timeout, the net.* failpoints, the net_* metrics and the inline Health
// answer. A FrameHandler supplies only what differs between the fronts:
// whether to admit a frame, how to execute it, and a few Health fields.
//
// Request path:
//   IO thread: parse frame -> version/verb checks -> peek tenant -> shed
//              -> FrameHandler::Admit -> enqueue (priority + deadline)
//   runner:    deadline check -> FrameHandler::Execute under the
//              request's TraceContext and verb span -> response frame
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
// Writes from runner threads interleave with the IO thread's error
// frames on the same socket; a per-connection write lock plus
// frame-at-a-time writes keep frames atomic. Connection fds are
// non-blocking, so a response that overruns the free send-buffer space
// polls for POLLOUT and resumes (protocol.cc WriteAll); a client that
// stops draining its socket stalls one runner for at most the write-stall
// timeout, after which that one connection is shut down (the client sees
// EOF) — never the listener or other connections.
//
// Observability (obs/trace.h, obs/metrics.h): a request's spans start at
// ADMISSION, not at the socket read — pre-admission work (frame parse,
// version/verb checks, tenant peek, shed, handler admission) is
// queue-position-dependent bookkeeping measured only by counters. The
// runner's first act on pop is to close the "queue_wait" span (enqueue ->
// pop) and feed net_queue_wait_seconds; it then installs the request's
// TraceContext (request_id/tenant/verb from the frame header) and opens
// the verb span, which everything the handler does nests under and tags
// with the same request_id. Rejected frames never open spans; they bump
// net_rejected_total{reason=...} and the matching ServerStatsWire
// counter. The resilience failure paths (shed, connection cap, idle
// reap, write stall, injected faults) also add a zero-duration
// "fault"-category trace event. Every net_* metric lives in the registry
// the owner passes in (the SessionManager's for BlinkServer, the
// router's own for ShardRouter).

#ifndef BLINKML_NET_FRAME_SERVER_H_
#define BLINKML_NET_FRAME_SERVER_H_

#include <atomic>
#include <cstdint>
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

/// Listener and overload limits shared by every serving front.
struct FrontOptions {
  /// Non-empty: listen on this Unix-domain socket path (an existing file
  /// at the path is replaced). Empty: listen on TCP host:port.
  std::string unix_path;
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  int port = 0;
  /// Runner threads executing admitted jobs (each blocks on one job at a
  /// time: a SessionManager future, or a forward to a shard worker).
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
  /// How long a response write blocked on a full send buffer waits for
  /// the peer to drain before the connection is dropped
  /// (protocol.h WriteOptions; stalls count net_write_stalls_total).
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

/// What a serving front does with the frames FrameServer parses.
class FrameHandler {
 public:
  /// IO thread, after the front's own checks passed; must not block.
  /// `tenant` is the payload's leading field, already peeked.
  virtual Admission Admit(const FrameHeader& header, const std::string& tenant,
                          const std::vector<std::uint8_t>& payload) = 0;

  /// Runner thread: executes an admitted frame and returns the response
  /// payload (a ResponseEnvelope, then the verb body on kOk). Runs under
  /// the request's TraceContext. An exception becomes a kInternal answer.
  virtual std::vector<std::uint8_t> Execute(
      const FrameHeader& header, const std::string& tenant,
      const std::vector<std::uint8_t>& payload) = 0;

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

  /// Idempotent. Stops accepting, drains the job queue (every admitted
  /// job runs or expires, every response is written), joins all threads,
  /// closes every connection.
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
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();
    const int fd;
    /// Unparsed received bytes (IO thread only).
    std::vector<std::uint8_t> in;
    /// Serializes whole-frame writes (IO thread error frames vs runner
    /// responses).
    std::mutex write_mu;
    std::atomic<bool> closed{false};
    /// Last read/write on this connection (steady-clock ms; atomic so the
    /// IO thread's idle reaper can read against runner-thread writes).
    std::atomic<std::int64_t> last_activity_ms{0};
    /// Admitted-but-unanswered jobs. The idle reaper never closes a
    /// connection that is only "idle" because its job is still running.
    std::atomic<int> inflight{0};
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

  /// Binds + listens, and opens the IO loop's wake pipe.
  Status Listen();
  /// Closes what Listen opened.
  void CloseListener();
  void IoLoop();
  void AcceptConnections();
  void RunnerLoop();

  /// Parses every complete frame out of conn->in; returns false when the
  /// connection must close (framing corruption).
  bool DrainConnectionBuffer(const ConnPtr& conn);

  /// Front checks + handler admission + enqueue (IO thread).
  void HandleFrame(const ConnPtr& conn, const FrameHeader& header,
                   std::vector<std::uint8_t> payload);

  /// Runner: queue-wait accounting, then Execute under the request's
  /// trace context, then the response.
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

  void SendPayload(const ConnPtr& conn, std::uint64_t request_id, Verb verb,
                   const std::vector<std::uint8_t>& payload);
  void SendError(const ConnPtr& conn, std::uint64_t request_id, Verb verb,
                 WireStatus status, const std::string& message,
                 std::uint32_t retry_after_ms = 0);

  /// Drops a connection the IO thread owns (closes with its last ref).
  void CloseConnection(std::unordered_map<int, ConnPtr>::iterator it);

  const FrontOptions options_;
  FrameHandler* const handler_;
  obs::Registry* const metrics_;

  JobQueue queue_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  /// IO-thread-owned connection table (fd -> connection).
  std::unordered_map<int, ConnPtr> connections_;
  std::atomic<int> open_connections_{0};

  mutable std::mutex stats_mu_;
  ServerStatsWire stats_;

  // Hot-path metrics, resolved once here (pointers are stable; see
  // obs/metrics.h).
  obs::Histogram* const h_queue_wait_;
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
