// ShardRouter: a supervised cross-process shard front over the
// networked serving protocol.
//
// The router is a FrameHandler on BlinkServer's connection core
// (net/frame_server.h) — a BlinkClient cannot tell the two apart — and
// partitions the dataset registry across N worker processes
// (example_serve_daemon instances spawned and lifecycle-managed by
// shard/supervisor.h). Routing is rendezvous hashing (shard/hashing.h)
// on the request's (tenant, dataset) key, peeked at admission; frames
// are forwarded RAW (same request_id/priority/deadline) over worker
// sockets pooled per shard and re-dialed only when the worker's
// generation changes, so a worker's trace spans carry the client's
// request id across the hop and the payload bytes the worker sees are
// the bytes the client sent.
//
// Two forward paths share that contract:
//   - A Predict under kInlinePredictValues (net/frame_server.h) never
//     reaches a runner. The front's IO loop writes the received frame
//     bytes unchanged to a pooled non-blocking worker socket that the
//     same loop watches, and passes the reply frame back unchanged (a
//     relay). The worker answers it on its own IO thread,
//     so a small Predict waits on no runner in either process.
//   - Everything else runs on a front runner, which writes the frame to
//     a pooled blocking worker socket and waits for the reply.
//
// Verb handling:
//   RegisterDataset  decode -> journal (idempotent; conflicts answer
//                    kInvalidArgument) -> forward to the key's owner
//   Train / Search   forward to Owner(tenant, dataset)
//   Predict          forward to Owner(tenant, "") — stateless, any
//                    shard computes identical bytes; the key just
//                    spreads tenants. Small ones relay from the IO loop
//   EvictIdle        broadcast to every up shard, sum evictions
//   Stats            fan out, sum manager + server counters per field
//                    onto the router front's own
//   Metrics          fan out, concatenate per-shard snapshots under
//                    "# shard <i>" headers, append the router's own
//                    registry (front net_* + shard_*) under "# router"
//   Health           answered by the front; a member shard that is not
//                    routable sets `shedding` — works whatever the
//                    workers are doing
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
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/client.h"
#include "net/codec.h"
#include "net/frame_server.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "shard/hashing.h"
#include "shard/journal.h"
#include "shard/supervisor.h"
#include "util/status.h"

namespace blinkml {
namespace shard {

/// The router front's listener and limits come from FrontOptions (the
/// same fields and defaults as a BlinkServer's).
struct RouterOptions : net::FrontOptions {
  int num_shards = 2;
  WorkerOptions worker;
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

class ShardRouter : private net::FrameHandler {
 public:
  explicit ShardRouter(RouterOptions options);
  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Spawns the workers (fails if the full member set cannot start),
  /// then binds the router socket and begins serving.
  Status Start();

  /// Idempotent: stops accepting, drains the front's admitted jobs,
  /// stops the workers.
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
  /// Router-scoped metrics (the front's net_* and the shard_* series;
  /// the Metrics verb appends this snapshot after the per-shard ones).
  obs::Registry& metrics() { return metrics_; }
  RouterStatsSnapshot stats() const;

 private:
  /// Idle sockets to one shard's worker. All belong to `generation`; a
  /// restart (new generation) closes them.
  struct WorkerSockets {
    std::mutex mu;
    std::uint64_t generation = 0;
    std::vector<int> idle;

    /// An idle socket to the worker's current generation, or -1.
    int Take(std::uint64_t worker_generation);
    /// Pools a socket after a clean exchange; closes it instead when the
    /// worker restarted meanwhile.
    void Return(std::uint64_t worker_generation, int fd);
    void CloseAll();
  };
  /// A relay in flight over a `loop_sockets_` socket.
  struct LoopForward {
    std::uint32_t shard = 0;
    std::uint64_t generation = 0;
    std::chrono::steady_clock::time_point started;
  };

  // FrameHandler: routing-key peek, then forward or fan out; small
  // Predicts relay from the IO loop.
  net::Admission Admit(const net::FrameHeader& header,
                       const std::string& tenant, const std::uint8_t* payload,
                       std::size_t size) override;
  std::vector<std::uint8_t> Execute(const net::FrameHeader& header,
                                    const std::string& tenant,
                                    const std::uint8_t* payload,
                                    std::size_t size) override;
  net::InlineAnswer ExecuteInline(const net::FrameHeader& header,
                                  const std::string& tenant,
                                  const std::uint8_t* payload,
                                  std::size_t size) override;
  std::vector<std::uint8_t> EndRelay(int fd, const Status& status) override;
  void AddHealth(net::HealthResponseWire* health) override;

  /// Routes + forwards a data-plane frame; returns the worker's response
  /// payload or a structured rejection.
  std::vector<std::uint8_t> RouteAndForward(const net::FrameHeader& header,
                                            const std::uint8_t* payload,
                                            std::size_t size,
                                            const ShardKey& key);
  /// Raw forward to one shard: preserves request_id/priority/deadline,
  /// returns the response frame. IOError = transport-level failure
  /// (the caller answers kUnavailable and flags the shard suspect).
  Status ForwardToShard(std::uint32_t shard_id,
                        const net::FrameHeader& header,
                        const std::uint8_t* payload, std::size_t size,
                        net::Frame* response);

  /// Forwards a fan-out verb to every member shard and decodes each kOk
  /// answer's body as a `Body`; `on_answer(shard_id, body)` gets nullptr
  /// for a shard that did not answer. Returns the retry-after hint for a
  /// fan-out no shard answered.
  template <typename Body, typename OnAnswer>
  std::uint32_t FanOut(const net::FrameHeader& header,
                       const std::uint8_t* payload, std::size_t size,
                       OnAnswer on_answer);

  std::vector<std::uint8_t> RunRegisterDataset(const net::FrameHeader& header,
                                               const std::uint8_t* payload,
                                               std::size_t size);
  std::vector<std::uint8_t> RunStats(const net::FrameHeader& header,
                                     const std::uint8_t* payload,
                                     std::size_t size);
  std::vector<std::uint8_t> RunMetrics(const net::FrameHeader& header,
                                       const std::uint8_t* payload,
                                       std::size_t size);
  std::vector<std::uint8_t> RunEvictIdle(const net::FrameHeader& header,
                                         const std::uint8_t* payload,
                                         std::size_t size);

  /// kUnavailable answer for a request routed at `shard_id`, with a
  /// retry-after hint sized from the shard's restart backoff.
  std::vector<std::uint8_t> Unavailable(std::uint32_t shard_id,
                                        const std::string& why);

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

  /// In-flight forwards per shard, relays included (drain waits for
  /// zero).
  std::vector<std::unique_ptr<std::atomic<int>>> inflight_;
  /// Blocking sockets for the runners' forwards.
  std::vector<std::unique_ptr<WorkerSockets>> sockets_;
  /// Non-blocking sockets for the IO loop's relays, and the relays in
  /// flight over them (IO thread only).
  std::vector<std::unique_ptr<WorkerSockets>> loop_sockets_;
  std::unordered_map<int, LoopForward> loop_forwards_;

  // Registry-resolved hot-path metrics, one per shard.
  std::vector<obs::Counter*> c_forwarded_;
  std::vector<obs::Counter*> c_unavailable_;
  std::vector<obs::Histogram*> h_forward_;
  obs::Counter* c_replayed_;
  obs::Counter* c_migrated_;
  obs::Counter* c_restarts_;
  obs::Counter* c_tripped_;
  obs::Gauge* g_up_workers_;

  /// Declared last: its runners forward through the members above.
  net::FrameServer front_;
};

}  // namespace shard
}  // namespace blinkml

#endif  // BLINKML_SHARD_ROUTER_H_
