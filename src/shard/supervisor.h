// WorkerSupervisor: owns the lifecycle of the shard router's worker
// processes (each one an example_serve_daemon speaking the framed wire
// protocol on its own Unix socket).
//
// Lifecycle of one worker:
//
//   spawn (fork+exec, --ready-fd handshake)
//     -> kReplaying  (the on_worker_up callback reconciles state — the
//                     router replays journaled registrations)
//     -> kUp         (routable)
//     -> death       (waitpid on the monitor thread, a failed Health
//                     probe, or a forwarding transport error reported
//                     via NoteSuspect)
//     -> kBackoff    (bounded-exponential restart delay)
//     -> spawn again ... until the restart budget is exhausted
//     -> kTripped    (restart-storm circuit breaker: the worker stays
//                     down, the on_worker_tripped callback migrates its
//                     keys to surviving shards)
//
// Liveness is judged three ways, cheapest first: waitpid(WNOHANG) on the
// monitor thread catches exits between probes; periodic Health probes
// (a BlinkClient with a recv timeout — a hung worker fails the probe
// instead of hanging the prober) catch live-but-wedged processes; and
// NoteSuspect lets the router's forwarding path report a transport error
// (EPIPE/ECONNRESET/EOF) the moment it happens, waking the monitor
// instead of waiting out a probe interval.
//
// Spawning from a multithreaded process: argv/envp are fully built
// BEFORE fork; between fork and exec the child calls only
// async-signal-safe functions (dup2/close/prctl/execve/_exit). The child
// gets PR_SET_PDEATHSIG=SIGTERM so an abandoned worker dies with its
// supervisor. Readiness is the daemon's --ready-fd handshake: one byte
// on a pipe after listen() succeeded; EOF without the byte (the daemon
// exits non-zero naming the failing address) fails the start without
// connect-polling.
//
// Failpoint arming for chaos tests and CI: `worker_failpoints` (or, when
// `inherit_env_failpoints` is set, the BLINKML_WORKER_FAILPOINTS
// environment variable) is exported to each worker as its
// BLINKML_FAILPOINTS — e.g. "manager.search=exit:137@nth:2" yields a
// worker that crashes mid-way through its second Search, every run. The
// parent's own BLINKML_FAILPOINTS is always stripped from the child
// environment: worker faults are injected only through this knob.

#ifndef BLINKML_SHARD_SUPERVISOR_H_
#define BLINKML_SHARD_SUPERVISOR_H_

#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"

namespace blinkml {
namespace shard {

struct WorkerOptions {
  /// Worker binary; empty resolves <dir of /proc/self/exe>/ +
  /// "example_serve_daemon" (tests and the router example live in the
  /// same build directory as the daemon).
  std::string worker_binary;
  /// Directory for the per-worker Unix sockets (worker<i>.sock) — keep
  /// it short, sockaddr_un caps paths around 100 bytes.
  std::string socket_dir = "/tmp";
  /// Distinguishes concurrent supervisors sharing a socket_dir (tests).
  std::string socket_prefix = "blinkml_shard";
  int runner_threads = 2;
  /// Ready-handshake deadline per spawn attempt.
  int start_timeout_ms = 10000;
  /// Monitor cadence: waitpid sweep always, Health probe at this period.
  int probe_interval_ms = 200;
  /// SO_RCVTIMEO on the prober's client; a probe slower than this counts
  /// as a failed probe.
  int probe_timeout_ms = 2000;
  /// Restart backoff: initial, doubling per consecutive restart, capped.
  std::uint32_t backoff_initial_ms = 10;
  std::uint32_t backoff_max_ms = 2000;
  /// Circuit breaker: lifetime restart budget per worker. The budget'th
  /// restart still runs; the one after trips the breaker. 0 = any death
  /// trips immediately (how tests exercise the tripped path
  /// deterministically).
  int max_restarts = 16;
  /// SIGTERM -> SIGKILL escalation deadline at Stop()/FinishDrain.
  int kill_timeout_ms = 5000;
  /// BLINKML_FAILPOINTS exported to every worker ("" = none).
  std::string worker_failpoints;
  /// Also honor the BLINKML_WORKER_FAILPOINTS env var when
  /// worker_failpoints is empty (the CI chaos leg's hook). Tests that
  /// must not inherit ambient kill schedules set this false.
  bool inherit_env_failpoints = true;
};

enum class WorkerState {
  kStarting,   // spawned, waiting for the ready byte
  kReplaying,  // ready; on_worker_up (journal replay) running
  kUp,         // routable
  kBackoff,    // dead; restart scheduled
  kTripped,    // circuit breaker open; stays down
  kDraining,   // planned drain in progress (router-driven); not probed
  kStopped,    // drained/stopped for good
};

const char* WorkerStateName(WorkerState state);

struct WorkerStatus {
  std::uint32_t shard_id = 0;
  WorkerState state = WorkerState::kStopped;
  std::string socket_path;
  pid_t pid = -1;
  /// Restarts consumed from the budget.
  int restarts = 0;
  /// Bumps on every successful (re)start; forwarding connections cache
  /// it and redial when it moves.
  std::uint64_t generation = 0;
};

class WorkerSupervisor {
 public:
  /// Ran after a worker's ready handshake, before it is marked kUp; a
  /// non-OK return counts as a failed start (consumes restart budget,
  /// re-enters backoff). The router replays journaled registrations
  /// here. Called WITHOUT the supervisor lock.
  using WorkerUpCallback =
      std::function<Status(std::uint32_t shard_id, const std::string& socket)>;
  /// Ran when a worker trips the breaker (without the lock); the router
  /// migrates the shard's keys to the survivors.
  using WorkerTrippedCallback = std::function<void(std::uint32_t shard_id)>;

  WorkerSupervisor(int num_workers, WorkerOptions options);
  ~WorkerSupervisor();
  WorkerSupervisor(const WorkerSupervisor&) = delete;
  WorkerSupervisor& operator=(const WorkerSupervisor&) = delete;

  /// Set before Start().
  void set_on_worker_up(WorkerUpCallback cb) { on_up_ = std::move(cb); }
  void set_on_worker_tripped(WorkerTrippedCallback cb) {
    on_tripped_ = std::move(cb);
  }

  /// Spawns every worker, waits for each handshake + up-callback, then
  /// starts the monitor thread. Fails (and stops what it started) if any
  /// worker cannot complete its FIRST start — a router that never had a
  /// full member set should not serve.
  Status Start();

  /// Idempotent: SIGTERM (then SIGKILL) every live worker, join the
  /// monitor, reap everything.
  void Stop();

  int num_workers() const { return num_workers_; }
  WorkerStatus status(std::uint32_t shard_id) const;
  std::vector<WorkerStatus> AllStatus() const;

  /// Forwarding-path failure report: wakes the monitor to waitpid/probe
  /// this worker now instead of at the next interval.
  void NoteSuspect(std::uint32_t shard_id);

  /// How long a client should wait before retrying a request routed at
  /// this worker: the time left until its scheduled restart while it is in
  /// kBackoff, else 0 (a death is noticed by the next waitpid sweep, at
  /// most 50 ms away, not by the probe interval). The router floors it
  /// for its kUnavailable hint.
  std::uint32_t RetryAfterHintMs(std::uint32_t shard_id) const;

  /// Planned drain, phase 1: stop lifecycle management (no probes, no
  /// restarts) while the router migrates registrations and drains
  /// in-flight work. The worker keeps serving.
  Status BeginDrain(std::uint32_t shard_id);
  /// Phase 2: SIGTERM the worker (it drains its own queue and exits),
  /// reap it, mark kStopped. Never restarted afterwards.
  Status FinishDrain(std::uint32_t shard_id);

 private:
  struct Worker {
    std::uint32_t shard_id = 0;
    std::string socket_path;
    WorkerState state = WorkerState::kStopped;
    pid_t pid = -1;
    int restarts = 0;
    std::uint64_t generation = 0;
    std::uint32_t next_backoff_ms = 0;
    std::chrono::steady_clock::time_point restart_due{};
    std::chrono::steady_clock::time_point last_probe{};
    bool suspect = false;
  };

  void MonitorLoop();
  /// One monitor pass over all workers (lock held; drops it around
  /// spawn/probe/callbacks).
  void Sweep(std::unique_lock<std::mutex>* lock);

  /// fork+exec + ready handshake. On success fills pid. Lock NOT held.
  Status SpawnWorker(std::uint32_t shard_id, const std::string& socket_path,
                     pid_t* pid);
  /// Health-probe `socket_path` with a fresh short-timeout client.
  bool ProbeWorker(const std::string& socket_path);
  /// Full start cycle for one worker: spawn, handshake, up-callback.
  /// Returns the new pid via the worker entry. Lock held on entry/exit,
  /// released during the slow parts.
  Status StartWorkerLocked(std::unique_lock<std::mutex>* lock, Worker* w);
  /// Death bookkeeping: budget check, backoff arm or breaker trip.
  void OnWorkerDeathLocked(std::unique_lock<std::mutex>* lock, Worker* w);

  /// SIGTERM, escalate to SIGKILL after kill_timeout_ms, reap.
  void TerminateAndReap(pid_t pid);

  const int num_workers_;
  const WorkerOptions options_;
  /// Resolved failpoint spec for workers (worker_failpoints or the env
  /// hook; frozen at construction).
  std::string resolved_failpoints_;

  WorkerUpCallback on_up_;
  WorkerTrippedCallback on_tripped_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Worker> workers_;
  bool started_ = false;
  bool stopping_ = false;
  std::thread monitor_;
};

}  // namespace shard
}  // namespace blinkml

#endif  // BLINKML_SHARD_SUPERVISOR_H_
