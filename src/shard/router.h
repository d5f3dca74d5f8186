// ShardRouter: a supervised cross-process shard front over the
// networked serving protocol.
//
// The router listens on its own Unix socket speaking the same framed
// wire protocol as BlinkServer — a BlinkClient cannot tell the two
// apart — and partitions the dataset registry across N worker processes
// (example_serve_daemon instances spawned and lifecycle-managed by
// shard/supervisor.h). Routing is rendezvous hashing (shard/hashing.h)
// on the request's (tenant, dataset) key; frames are forwarded RAW
// (header re-written with the same request_id/priority/deadline), so a
// worker's trace spans carry the client's request id across the hop and
// the payload bytes the worker sees are the bytes the client sent.
//
// Verb handling:
//   RegisterDataset  decode -> journal (idempotent; conflicts answer
//                    kInvalidArgument) -> forward to the key's owner
//   Train / Search   forward to Owner(tenant, dataset)
//   Predict          forward to Owner(tenant, "") — stateless, any
//                    shard computes identical bytes; the key just
//                    spreads tenants
//   EvictIdle        broadcast to every up shard, sum evictions
//   Stats            fan out, sum manager + server counters per field
//   Metrics          fan out, concatenate per-shard snapshots under
//                    "# shard <i>" headers, append the router's own
//   Health           answered locally from supervisor state (accepting,
//                    any-shard-degraded as `shedding`, rolled-up
//                    counters) — works whatever the workers are doing
//
// Failure model (the contract tests/shard_test.cc and chaos_test.cc
// hold): every response is either bitwise identical to the same request
// served by a single in-process SessionManager, or a structured
// retryable rejection. A request routed at a dead/restarting shard is
// answered kUnavailable with a retry-after hint sized from the shard's
// restart backoff; ownership is STICKY across a crash (no migration),
// so a client retrying through net/client.h RetryPolicy converges to
// the bitwise-identical result once the worker restarts and the
// registration journal (shard/journal.h) is replayed into it. Keys
// migrate only when a shard leaves the member set for good: planned
// drain (DrainShard: re-register to the new owners FIRST, then flip
// routing, then drain in-flight and stop the worker — no window where a
// routed request can hit an owner missing its registration) and the
// restart-storm circuit breaker (same migration, driven by the
// supervisor's tripped callback). Migration is bitwise invisible:
// results are pure functions of (generator, seed, config), never of
// placement.

#ifndef BLINKML_SHARD_ROUTER_H_
#define BLINKML_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/client.h"
#include "net/codec.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "shard/hashing.h"
#include "shard/journal.h"
#include "shard/supervisor.h"
#include "util/status.h"

namespace blinkml {
namespace shard {

struct RouterOptions {
  /// The router's own listening socket.
  std::string unix_path;
  int num_shards = 2;
  WorkerOptions worker;
  int listen_backlog = 64;
  /// Floor for the retry-after hint on kUnavailable responses (the
  /// supervisor's backoff-aware hint can raise it).
  std::uint32_t unavailable_retry_ms = 25;
  /// Control-plane clients (journal replay, drain/trip migration):
  /// connect retry budget and per-call retry policy attempts.
  int control_connect_attempts = 40;
  std::uint32_t control_connect_backoff_ms = 25;
  int control_call_attempts = 5;
};

/// Rolled-up router counters (mirrors of the registry metrics, for
/// tests and benches that want numbers without parsing a snapshot).
struct RouterStatsSnapshot {
  std::uint64_t forwarded = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t replayed_registrations = 0;
  std::uint64_t migrated_registrations = 0;
  std::uint64_t worker_restarts = 0;
  std::uint64_t workers_tripped = 0;
};

class ShardRouter {
 public:
  explicit ShardRouter(RouterOptions options);
  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Spawns the workers (fails if the full member set cannot start),
  /// then binds the router socket and begins serving.
  Status Start();

  /// Idempotent: stops accepting, unblocks and joins every connection
  /// handler, stops the workers.
  void Stop();

  /// Planned removal of one shard: migrate its journaled registrations
  /// to their new owners, flip routing, wait out in-flight forwards,
  /// then SIGTERM the worker (which drains its own queue). The shard
  /// never comes back; its capacity is gone, its keys are not.
  Status DrainShard(std::uint32_t shard_id);

  /// The current owner of `key` (-1 when no members remain): test hook
  /// and operator introspection.
  int OwnerShard(const ShardKey& key) const;

  /// Shards currently eligible for ownership.
  std::vector<std::uint32_t> Members() const;

  WorkerSupervisor& supervisor() { return *supervisor_; }
  const RegistrationJournal& journal() const { return journal_; }
  /// Router-scoped metrics (shard_* series; the Metrics verb appends
  /// this snapshot after the per-shard ones).
  obs::Registry& metrics() { return metrics_; }
  RouterStatsSnapshot stats() const;

 private:
  /// One client connection's forwarding state: a cached socket per
  /// shard, keyed by worker generation so a restart redials.
  struct ShardConn {
    int fd = -1;
    std::uint64_t generation = 0;
  };
  struct ClientConn {
    int fd = -1;
    std::unordered_map<std::uint32_t, ShardConn> shard_conns;
  };

  void AcceptLoop();
  void HandleConnection(int fd);
  /// Dispatches one parsed frame; returns false when the connection
  /// must close (framing desync).
  bool HandleFrame(ClientConn* conn, const net::Frame& frame);

  /// Routes + forwards a data-plane frame, writing the worker's
  /// response (or a structured rejection) back to the client.
  void RouteAndForward(ClientConn* conn, const net::Frame& frame,
                       const ShardKey& key);
  /// Raw forward to one shard: preserves request_id/priority/deadline,
  /// returns the response frame. IOError = transport-level failure
  /// (the caller answers kUnavailable and flags the shard suspect).
  Status ForwardToShard(ClientConn* conn, std::uint32_t shard_id,
                        const net::Frame& frame, net::Frame* response);

  void HandleRegisterDataset(ClientConn* conn, const net::Frame& frame);
  void HandleHealth(ClientConn* conn, const net::Frame& frame);
  void HandleStats(ClientConn* conn, const net::Frame& frame);
  void HandleMetrics(ClientConn* conn, const net::Frame& frame);
  void HandleEvictIdle(ClientConn* conn, const net::Frame& frame);

  void SendEnvelopeOnly(ClientConn* conn, std::uint64_t request_id,
                        net::Verb verb, net::WireStatus status,
                        const std::string& message,
                        std::uint32_t retry_after_ms = 0);
  void SendBody(ClientConn* conn, std::uint64_t request_id, net::Verb verb,
                const net::WireWriter& body);
  void ReplyUnavailable(ClientConn* conn, const net::Frame& frame,
                        std::uint32_t shard_id, const std::string& why);

  /// Supervisor callbacks.
  Status ReplayShard(std::uint32_t shard_id, const std::string& socket_path);
  void OnShardTripped(std::uint32_t shard_id);

  /// Re-registers every journal entry owned by `leaving` (under the
  /// CURRENT member set) to its owner in the member set WITHOUT
  /// `leaving`, via control clients. Routing is not touched.
  Status MigrateShardKeys(std::uint32_t leaving);
  /// Removes `shard_id` from the member set.
  void RemoveMember(std::uint32_t shard_id);

  /// Control-plane client to one worker (connect-retry + retry policy).
  Result<net::BlinkClient> ControlClient(const std::string& socket_path);

  const RouterOptions options_;
  std::unique_ptr<WorkerSupervisor> supervisor_;
  RegistrationJournal journal_;
  obs::Registry metrics_;

  mutable std::mutex members_mu_;
  std::vector<std::uint32_t> members_;

  /// In-flight forwards per shard (drain waits for zero).
  std::vector<std::unique_ptr<std::atomic<int>>> inflight_;

  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;
  bool stopped_ = false;
  bool started_ = false;
  std::thread accept_thread_;
  std::mutex handlers_mu_;
  /// Live connections: client fd -> its handler thread (shutdown() at
  /// Stop unblocks them). A handler erases its entry before it closes the
  /// fd, so accept cannot hand out a number that is still a key.
  std::unordered_map<int, std::thread> handlers_;
  /// Handlers that have exited, joined at the next accept (or Stop), so
  /// the bookkeeping stays bounded by the live connections.
  std::vector<std::thread> finished_handlers_;

  // Registry-resolved hot-path counters, one per shard.
  std::vector<obs::Counter*> c_forwarded_;
  std::vector<obs::Counter*> c_unavailable_;
  obs::Counter* c_replayed_;
  obs::Counter* c_migrated_;
  obs::Counter* c_restarts_;
  obs::Counter* c_tripped_;
  obs::Gauge* g_connections_;
  obs::Gauge* g_up_workers_;
};

}  // namespace shard
}  // namespace blinkml

#endif  // BLINKML_SHARD_ROUTER_H_
