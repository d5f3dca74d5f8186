// Per-request trace spans, exported as Chrome trace_event JSON
// (chrome://tracing / Perfetto "Open trace file").
//
// A TraceContext carries the wire request_id (plus tenant and verb) from
// BlinkServer admission through the job queue to the runner thread that
// runs the request's SessionManager job, across a search's pool lanes,
// and down into TrainingPipeline phases, estimator Monte-Carlo draw
// loops, and kernel scopes — every span a request produces shares its
// request_id in `args`, so one slow request can be followed from wire
// read to kernel.
//
// Cost model: the tracer is off by default; every instrumentation point
// starts with one relaxed atomic load and does nothing else when
// disabled. When enabled, spans are coarse (per request / phase /
// estimator loop / kernel call, never per row or per draw), so the
// single event mutex is uncontended in practice and TSan-clean by
// construction. Instrumentation only ever *reads* the wall clock — no
// recorded value feeds back into compute, so results stay bitwise
// identical with tracing on or off (tests/obs_test.cc).

#ifndef BLINKML_OBS_TRACE_H_
#define BLINKML_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace blinkml {
namespace obs {

/// The identity a request carries through the system. Installed
/// thread-local by ScopedTraceContext; captured into job closures at
/// thread hops and re-installed on the other side.
struct TraceContext {
  std::uint64_t request_id = 0;
  std::string tenant;
  /// Static string (VerbName() or a literal); never freed.
  const char* verb = "";
  bool valid = false;
};

/// The context installed on this thread (invalid default when none).
const TraceContext& CurrentTraceContext();

/// RAII: installs `ctx` as this thread's context, restores the previous
/// one on destruction.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext ctx_;
  const TraceContext* prev_;
};

/// One completed span ("ph":"X" in trace_event terms). `name`, `cat`,
/// and `arg_name` must be static strings.
struct TraceEvent {
  const char* name = "";
  const char* cat = "";
  double ts_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
  std::uint64_t request_id = 0;
  std::string tenant;
  const char* verb = "";
  const char* arg_name = nullptr;
  long long arg_value = 0;
};

/// Process-wide span collector. Start() arms it, Stop() disarms and
/// dumps everything recorded since Start() as Chrome trace JSON.
class Tracer {
 public:
  static Tracer& Global();

  /// Clears prior events and starts recording; spans time-stamp relative
  /// to this call. The file is written by Stop().
  void Start(std::string path);

  /// Disarms and writes the JSON dump to the Start() path (the
  /// "StopTracing" dump). No-op Ok when never started.
  Status Stop();

  /// Acquire pairs with Start()'s release so a thread that sees
  /// enabled==true also sees the new time base.
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Microseconds since Start() (meaningful only while enabled).
  double NowUs() const;

  /// Appends `event` if enabled (fills tid and the current context's
  /// request_id/tenant/verb when the caller left them default).
  void Record(TraceEvent event);

  /// Events recorded so far (copy; test hook).
  std::vector<TraceEvent> Snapshot() const;

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  /// steady_clock time_since_epoch of Start(), in nanoseconds.
  std::atomic<std::int64_t> start_ns_{0};
  mutable std::mutex mu_;
  std::string path_;
  std::vector<TraceEvent> events_;
};

/// Renders events as a Chrome trace_event JSON document.
std::string RenderChromeTrace(const std::vector<TraceEvent>& events);

/// RAII span: records [construction, destruction) under `name` when the
/// tracer was enabled at construction; a single relaxed load otherwise.
class SpanScope {
 public:
  explicit SpanScope(const char* name, const char* cat = "task",
                     const char* arg_name = nullptr, long long arg_value = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_;
  const char* cat_;
  const char* arg_name_;
  long long arg_value_;
  double start_us_;  // < 0: tracer was disabled at construction
};

/// Combined pipeline-phase scope: always accumulates elapsed seconds
/// into `sink` (the PhaseTimings field, preserving ApproxResult::timings)
/// and into the global registry's pipeline_phase_seconds{phase=...}
/// histogram; additionally emits a trace span when tracing is on.
/// `phase` must be a static string.
class PhaseScope {
 public:
  explicit PhaseScope(const char* phase, double* sink);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  const char* phase_;
  double* sink_;
  std::chrono::steady_clock::time_point start_;
  double start_us_;  // < 0: tracer disabled at construction
};

}  // namespace obs
}  // namespace blinkml

#endif  // BLINKML_OBS_TRACE_H_
