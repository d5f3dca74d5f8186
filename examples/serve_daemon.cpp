// Stand-alone BlinkML serving daemon: a SessionManager behind the framed
// wire protocol (src/net/) on a Unix-domain socket.
//
//   $ ./build/example_serve_daemon [--socket=/path.sock] [--runner-threads=N]
//                                  [--ready-fd=N] [--ready-file=/path]
//
// Runs until SIGINT/SIGTERM, then drains the job queue (every admitted
// job still gets its response) and exits 0. Pair with
// example_serve_client, which registers a dataset, trains, and predicts
// over the socket — CI runs the two as its release smoke test.
//
// Startup handshake (what a supervisor needs to launch workers without
// connect-polling): --ready-fd=N writes one byte to fd N and closes it
// the moment listen() has succeeded — the parent keeps the read end of a
// pipe and knows the socket is acceptable the instant the byte arrives,
// while EOF without a byte means startup failed (pair with waitpid).
// --ready-file=PATH creates PATH at the same moment, for shell callers.
// A bind/listen failure exits non-zero with the failing address on
// stderr and never signals readiness. This daemon is the worker process
// a shard/supervisor.h WorkerSupervisor spawns.

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "net/server.h"
#include "obs/trace.h"
#include "serve/session_manager.h"

namespace {

// Set by the signal handler on whichever thread takes the signal, read by
// the main loop: a lock-free atomic is async-signal-safe and, unlike a
// volatile flag, ordered across threads.
std::atomic<bool> g_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free);

void HandleSignal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace blinkml;
  using namespace blinkml::net;

  std::string socket_path = "/tmp/blinkml_serve.sock";
  std::string trace_path;
  std::string ready_file;
  int ready_fd = -1;
  int runner_threads = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(std::strlen("--socket="));
    } else if (arg.rfind("--runner-threads=", 0) == 0) {
      runner_threads = std::atoi(arg.c_str() + std::strlen("--runner-threads="));
      if (runner_threads < 1) {
        std::fprintf(stderr, "--runner-threads must be >= 1\n");
        return 2;
      }
    } else if (arg.rfind("--ready-fd=", 0) == 0) {
      ready_fd = std::atoi(arg.c_str() + std::strlen("--ready-fd="));
      if (ready_fd < 0) {
        std::fprintf(stderr, "--ready-fd must be a valid descriptor\n");
        return 2;
      }
    } else if (arg.rfind("--ready-file=", 0) == 0) {
      ready_file = arg.substr(std::strlen("--ready-file="));
      if (ready_file.empty()) {
        std::fprintf(stderr, "--ready-file needs a path\n");
        return 2;
      }
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(std::strlen("--trace="));
      if (trace_path.empty()) {
        std::fprintf(stderr, "--trace needs a file path\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--socket=/path.sock] [--runner-threads=N] "
                   "[--ready-fd=N] [--ready-file=/path] [--trace=trace.json]\n",
                   argv[0]);
      return 2;
    }
  }

  // Per-request spans (wire read -> queue wait -> pipeline phases ->
  // kernels) for every request served until shutdown; the dump is the
  // StopTracing write below.
  if (!trace_path.empty()) obs::Tracer::Global().Start(trace_path);

  SessionManager manager(ServeOptions{/*max_resident_bytes=*/512ull << 20,
                                      /*max_concurrent_jobs=*/runner_threads});
  ServerOptions options;
  options.unix_path = socket_path;
  options.runner_threads = runner_threads;
  BlinkServer server(&manager, options);
  const Status st = server.Start();
  if (!st.ok()) {
    // The Status message names the failing address (bind(<path>): ...);
    // a supervisor reads this off the worker's stderr. Readiness is
    // never signaled on this path: the ready fd closes unwritten (EOF
    // at the supervisor) and the ready file is never created.
    std::fprintf(stderr, "start failed on %s: %s\n", socket_path.c_str(),
                 st.ToString().c_str());
    if (ready_fd >= 0) ::close(ready_fd);
    return 1;
  }

  // listen() has succeeded: signal readiness before serving.
  if (ready_fd >= 0) {
    const char byte = 'R';
    if (::write(ready_fd, &byte, 1) != 1) {
      std::fprintf(stderr, "ready-fd %d write failed: %s\n", ready_fd,
                   std::strerror(errno));
      return 1;
    }
    ::close(ready_fd);
  }
  if (!ready_file.empty()) {
    const int fd =
        ::open(ready_file.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd < 0) {
      std::fprintf(stderr, "ready-file %s failed: %s\n", ready_file.c_str(),
                   std::strerror(errno));
      return 1;
    }
    const char byte = 'R';
    (void)!::write(fd, &byte, 1);
    ::close(fd);
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::printf("serving on %s (%d runner threads); SIGINT/SIGTERM to stop\n",
              socket_path.c_str(), runner_threads);
  std::fflush(stdout);

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  server.Stop();
  if (!trace_path.empty()) {
    const Status trace_st = obs::Tracer::Global().Stop();
    if (trace_st.ok()) {
      std::printf("trace written to %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "trace dump failed: %s\n",
                   trace_st.ToString().c_str());
    }
  }
  const auto stats = server.stats();
  std::printf("stopped: %llu frames, %llu responses, %llu jobs\n",
              static_cast<unsigned long long>(stats.frames_received),
              static_cast<unsigned long long>(stats.responses_sent),
              static_cast<unsigned long long>(stats.jobs_enqueued));
  return 0;
}
