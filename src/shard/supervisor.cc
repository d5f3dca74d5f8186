#include "shard/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "net/client.h"
#include "util/string_util.h"

extern "C" char** environ;

namespace blinkml {
namespace shard {
namespace {

using Clock = std::chrono::steady_clock;

std::string SelfExeDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  const std::string exe(buf, static_cast<std::size_t>(n));
  const std::size_t slash = exe.rfind('/');
  return slash == std::string::npos ? "." : exe.substr(0, slash);
}

bool HasPrefix(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

}  // namespace

const char* WorkerStateName(WorkerState state) {
  switch (state) {
    case WorkerState::kStarting:
      return "starting";
    case WorkerState::kReplaying:
      return "replaying";
    case WorkerState::kUp:
      return "up";
    case WorkerState::kBackoff:
      return "backoff";
    case WorkerState::kTripped:
      return "tripped";
    case WorkerState::kDraining:
      return "draining";
    case WorkerState::kStopped:
      return "stopped";
  }
  return "unknown";
}

WorkerSupervisor::WorkerSupervisor(int num_workers, WorkerOptions options)
    : num_workers_(num_workers), options_(std::move(options)) {
  resolved_failpoints_ = options_.worker_failpoints;
  if (resolved_failpoints_.empty() && options_.inherit_env_failpoints) {
    const char* env = std::getenv("BLINKML_WORKER_FAILPOINTS");
    if (env != nullptr) resolved_failpoints_ = env;
  }
  workers_.resize(static_cast<std::size_t>(num_workers_));
  for (int i = 0; i < num_workers_; ++i) {
    Worker& w = workers_[static_cast<std::size_t>(i)];
    w.shard_id = static_cast<std::uint32_t>(i);
    w.socket_path = options_.socket_dir + "/" + options_.socket_prefix +
                    "_w" + std::to_string(i) + ".sock";
  }
}

WorkerSupervisor::~WorkerSupervisor() { Stop(); }

Status WorkerSupervisor::Start() {
  std::unique_lock<std::mutex> lock(mu_);
  if (started_) return Status::InvalidArgument("supervisor already started");
  if (num_workers_ < 1) {
    return Status::InvalidArgument("need at least one worker");
  }
  for (Worker& w : workers_) {
    const Status st = StartWorkerLocked(&lock, &w);
    if (!st.ok()) {
      // A router that never had its full member set must not serve:
      // tear down the workers that did start and fail Start() whole.
      lock.unlock();
      Stop();
      return Status::IOError(StrFormat("shard %u failed to start: %s",
                                       w.shard_id, st.ToString().c_str()));
    }
  }
  started_ = true;
  monitor_ = std::thread([this] { MonitorLoop(); });
  return Status::OK();
}

void WorkerSupervisor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  std::lock_guard<std::mutex> lock(mu_);
  for (Worker& w : workers_) {
    if (w.pid > 0) {
      TerminateAndReap(w.pid);
      w.pid = -1;
    }
    w.state = WorkerState::kStopped;
    ::unlink(w.socket_path.c_str());
  }
}

WorkerStatus WorkerSupervisor::status(std::uint32_t shard_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  WorkerStatus out;
  if (shard_id >= workers_.size()) return out;
  const Worker& w = workers_[shard_id];
  out.shard_id = w.shard_id;
  out.state = w.state;
  out.socket_path = w.socket_path;
  out.pid = w.pid;
  out.restarts = w.restarts;
  out.generation = w.generation;
  return out;
}

std::vector<WorkerStatus> WorkerSupervisor::AllStatus() const {
  std::vector<WorkerStatus> out;
  out.reserve(workers_.size());
  for (std::uint32_t i = 0; i < workers_.size(); ++i) out.push_back(status(i));
  return out;
}

void WorkerSupervisor::NoteSuspect(std::uint32_t shard_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shard_id >= workers_.size()) return;
    workers_[shard_id].suspect = true;
  }
  cv_.notify_all();
}

std::uint32_t WorkerSupervisor::RetryAfterHintMs(std::uint32_t shard_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (shard_id >= workers_.size()) return 0;
  const Worker& w = workers_[shard_id];
  if (w.state != WorkerState::kBackoff) return 0;
  const std::int64_t ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(w.restart_due -
                                                            Clock::now())
          .count();
  return static_cast<std::uint32_t>(std::max<std::int64_t>(ms, 0));
}

Status WorkerSupervisor::BeginDrain(std::uint32_t shard_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shard_id >= workers_.size()) {
    return Status::InvalidArgument("no such shard");
  }
  Worker& w = workers_[shard_id];
  if (w.state != WorkerState::kUp) {
    return Status::InvalidArgument(
        StrFormat("shard %u is %s, not up; only an up shard can drain",
                  shard_id, WorkerStateName(w.state)));
  }
  w.state = WorkerState::kDraining;
  return Status::OK();
}

Status WorkerSupervisor::FinishDrain(std::uint32_t shard_id) {
  pid_t pid = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shard_id >= workers_.size()) {
      return Status::InvalidArgument("no such shard");
    }
    Worker& w = workers_[shard_id];
    if (w.state != WorkerState::kDraining) {
      return Status::InvalidArgument(
          StrFormat("shard %u is %s, not draining", shard_id,
                    WorkerStateName(w.state)));
    }
    pid = w.pid;
    w.pid = -1;
    w.state = WorkerState::kStopped;
  }
  // SIGTERM lets the daemon drain its own admitted jobs before exiting.
  if (pid > 0) TerminateAndReap(pid);
  return Status::OK();
}

void WorkerSupervisor::MonitorLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  const auto tick = std::chrono::milliseconds(
      std::max(10, std::min(options_.probe_interval_ms / 2, 50)));
  while (!stopping_) {
    cv_.wait_for(lock, tick);
    if (stopping_) break;
    Sweep(&lock);
  }
}

void WorkerSupervisor::Sweep(std::unique_lock<std::mutex>* lock) {
  const auto now = Clock::now();
  for (Worker& w : workers_) {
    if (stopping_) return;
    switch (w.state) {
      case WorkerState::kUp: {
        // Cheapest check first: did the process exit since last sweep?
        int wstatus = 0;
        if (w.pid > 0 && ::waitpid(w.pid, &wstatus, WNOHANG) == w.pid) {
          w.pid = -1;
          OnWorkerDeathLocked(lock, &w);
          break;
        }
        const bool probe_due =
            w.suspect ||
            now - w.last_probe >=
                std::chrono::milliseconds(options_.probe_interval_ms);
        if (!probe_due) break;
        w.suspect = false;
        w.last_probe = now;
        const std::uint64_t gen = w.generation;
        const std::string socket_path = w.socket_path;
        lock->unlock();
        const bool alive = ProbeWorker(socket_path);
        lock->lock();
        if (stopping_ || w.state != WorkerState::kUp || w.generation != gen) {
          break;  // the world moved while we probed
        }
        if (!alive) {
          // Dead, wedged, or unreachable — all three get the same cure.
          // Reap if it exited; SIGKILL + reap if it is wedged.
          if (w.pid > 0) {
            if (::waitpid(w.pid, &wstatus, WNOHANG) != w.pid) {
              ::kill(w.pid, SIGKILL);
              ::waitpid(w.pid, &wstatus, 0);
            }
            w.pid = -1;
          }
          OnWorkerDeathLocked(lock, &w);
        }
        break;
      }
      case WorkerState::kBackoff: {
        if (now < w.restart_due) break;
        const Status st = StartWorkerLocked(lock, &w);
        if (!st.ok() && w.state != WorkerState::kTripped && !stopping_) {
          OnWorkerDeathLocked(lock, &w);
        }
        break;
      }
      default:
        break;  // kStarting/kReplaying are transient inside
                // StartWorkerLocked; kTripped/kDraining/kStopped are not
                // lifecycle-managed here.
    }
  }
}

Status WorkerSupervisor::StartWorkerLocked(std::unique_lock<std::mutex>* lock,
                                           Worker* w) {
  w->state = WorkerState::kStarting;
  const std::string socket_path = w->socket_path;
  const std::uint32_t shard_id = w->shard_id;
  lock->unlock();
  pid_t pid = -1;
  Status st = SpawnWorker(shard_id, socket_path, &pid);
  if (st.ok()) {
    // Reconcile before routing: the up-callback (journal replay) must
    // finish before anyone can be routed at this worker, or a re-sent
    // Train could answer kNotFound — which is not retryable.
    lock->lock();
    w->pid = pid;
    w->state = WorkerState::kReplaying;
    lock->unlock();
    if (on_up_) st = on_up_(shard_id, socket_path);
    if (!st.ok()) {
      TerminateAndReap(pid);
      pid = -1;
    }
  }
  lock->lock();
  if (stopping_) {
    if (pid > 0) {
      lock->unlock();
      TerminateAndReap(pid);
      lock->lock();
    }
    w->pid = -1;
    w->state = WorkerState::kStopped;
    return Status::IOError("supervisor stopping");
  }
  if (!st.ok()) {
    w->pid = -1;
    w->state = WorkerState::kBackoff;  // caller decides budget/trip
    return st;
  }
  w->pid = pid;
  w->generation += 1;
  w->state = WorkerState::kUp;
  w->suspect = false;
  w->next_backoff_ms = 0;
  w->last_probe = Clock::now();
  return Status::OK();
}

void WorkerSupervisor::OnWorkerDeathLocked(std::unique_lock<std::mutex>* lock,
                                           Worker* w) {
  if (w->restarts >= options_.max_restarts) {
    w->state = WorkerState::kTripped;
    if (on_tripped_) {
      const std::uint32_t shard_id = w->shard_id;
      lock->unlock();
      on_tripped_(shard_id);
      lock->lock();
    }
    return;
  }
  w->restarts += 1;
  w->next_backoff_ms =
      w->next_backoff_ms == 0
          ? options_.backoff_initial_ms
          : std::min(w->next_backoff_ms * 2, options_.backoff_max_ms);
  w->restart_due = Clock::now() + std::chrono::milliseconds(w->next_backoff_ms);
  w->state = WorkerState::kBackoff;
}

Status WorkerSupervisor::SpawnWorker(std::uint32_t shard_id,
                                     const std::string& socket_path,
                                     pid_t* pid_out) {
  std::string binary = options_.worker_binary;
  if (binary.empty()) binary = SelfExeDir() + "/example_serve_daemon";
  ::unlink(socket_path.c_str());

  // Everything the child needs is materialized BEFORE fork: this process
  // is multithreaded, so the child may only touch async-signal-safe
  // calls until execve.
  std::vector<std::string> arg_strings = {
      binary,
      "--socket=" + socket_path,
      "--runner-threads=" + std::to_string(options_.runner_threads),
      "--ready-fd=3",
  };
  std::vector<char*> argv;
  argv.reserve(arg_strings.size() + 1);
  for (std::string& s : arg_strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    // The parent's own failpoint arming never leaks into workers; the
    // BLINKML_WORKER_FAILPOINTS hook is consumed here, not inherited.
    if (HasPrefix(*e, "BLINKML_FAILPOINTS=") ||
        HasPrefix(*e, "BLINKML_WORKER_FAILPOINTS=")) {
      continue;
    }
    env_strings.emplace_back(*e);
  }
  if (!resolved_failpoints_.empty()) {
    env_strings.push_back("BLINKML_FAILPOINTS=" + resolved_failpoints_);
  }
  std::vector<char*> envp;
  envp.reserve(env_strings.size() + 1);
  for (std::string& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);

  int ready_pipe[2];
  if (::pipe(ready_pipe) != 0) {
    return Status::IOError(StrFormat("pipe: %s", std::strerror(errno)));
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(ready_pipe[0]);
    ::close(ready_pipe[1]);
    return Status::IOError(StrFormat("fork: %s", std::strerror(errno)));
  }
  if (pid == 0) {
    // Child: async-signal-safe territory only.
    ::close(ready_pipe[0]);
    if (ready_pipe[1] != 3) {
      ::dup2(ready_pipe[1], 3);
      ::close(ready_pipe[1]);
    }
    // Die with the supervisor instead of lingering as an orphan.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }

  ::close(ready_pipe[1]);
  // The daemon writes one byte to fd 3 the moment listen() succeeded;
  // EOF without a byte means it exited first (bad binary, bind failure —
  // its stderr names the failing address).
  struct pollfd pfd;
  pfd.fd = ready_pipe[0];
  pfd.events = POLLIN;
  Status st = Status::OK();
  const int pr = ::poll(&pfd, 1, options_.start_timeout_ms);
  if (pr <= 0) {
    st = Status::IOError(StrFormat(
        "shard %u worker did not become ready within %d ms", shard_id,
        options_.start_timeout_ms));
  } else {
    char byte = 0;
    const ssize_t n = ::read(ready_pipe[0], &byte, 1);
    if (n != 1) {
      st = Status::IOError(StrFormat(
          "shard %u worker exited before signaling ready (binary %s)",
          shard_id, binary.c_str()));
    }
  }
  ::close(ready_pipe[0]);
  if (!st.ok()) {
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    return st;
  }
  *pid_out = pid;
  return Status::OK();
}

bool WorkerSupervisor::ProbeWorker(const std::string& socket_path) {
  auto client = net::BlinkClient::ConnectUnix(socket_path);
  if (!client.ok()) return false;
  if (!client.value().set_recv_timeout_ms(options_.probe_timeout_ms).ok()) {
    return false;
  }
  return client.value().Health("_probe").ok();
}

void WorkerSupervisor::TerminateAndReap(pid_t pid) {
  ::kill(pid, SIGTERM);
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.kill_timeout_ms);
  int wstatus = 0;
  while (Clock::now() < deadline) {
    if (::waitpid(pid, &wstatus, WNOHANG) == pid) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &wstatus, 0);
}

}  // namespace shard
}  // namespace blinkml
