// Shared pieces of the end-to-end benchmark (see NOTES.md).
//
// Every workload is a closed loop over the real wire protocol: one
// request in flight per client connection, latency from client send to
// response decoded. The request sequence is a pure function of --seed.
// The traced run replays the same sequence with spans recorded by this
// benchmark around its calls into each layer (never inside the program).
#ifndef BLINKML_BENCH_E2E_BENCH_H_
#define BLINKML_BENCH_E2E_BENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/codec.h"
#include "net/protocol.h"
#include "util/status.h"

namespace bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  /// Tiny datasets and short phases: all three workloads in seconds.
  bool smoke = false;
  /// Flips one bit of every reference digest; the run must then fail.
  bool corrupt_reference = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one workload run reports.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Failed output checks and regime guards; any entry fails the run.
  std::vector<std::string> errors;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Environment block entries specific to the workload.
  int pool_lanes = 0;
  int connections = 0;
  double tail_percentile = 0.0;
  std::int64_t tail_samples = 0;
  /// Share of all CPU time the hypervisor stole during the timed window
  /// (/proc/stat): the host load that no benchmark setting controls.
  double steal_share = 0.0;

  void Fail(const std::string& what) { errors.push_back(what); }
  void Add(std::vector<Metric>* to, const std::string& name,
           const std::string& unit, double value) {
    to->push_back(Metric{name, unit, value});
  }
};

/// The point at fraction u of [lo, hi] on a log scale.
double LogScale(double lo, double hi, double u);

/// Deterministic request-stream generator (SplitMix64). Kept inside the
/// benchmark so the inputs never change when the program's own RNG does.
class SeqRng {
 public:
  explicit SeqRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  double LogUniform(double lo, double hi);
  /// Geometric number of trials >= 1 with the given mean.
  int Geometric(double mean);

 private:
  std::uint64_t state_;
};

/// Fixed grids in a seeded order. Block b of `points` consecutive draws
/// returns each point (k + phi_b) / points of [0, 1), k < points, once,
/// in a fresh seeded permutation. phi_0 = 1/2, and phi_b steps on by the
/// golden ratio, so no value repeats across blocks (a repeated request
/// would hit the session's sample cache). Block b holds the same values
/// whatever the seed, so metrics read over whole blocks differ from seed
/// to seed only by the system, not by the draw.
class ShuffledGrid {
 public:
  ShuffledGrid(SeqRng* rng, int points) : rng_(rng), points_(points) {}
  double Next();
  /// Drops the rest of the current block; the next draw opens a new one.
  void StartBlock() { order_.clear(); }

 private:
  SeqRng* rng_;
  int points_;
  /// Blocks opened so far, and the current block's offset phi_b.
  int blocks_ = 0;
  double offset_ = 0.5;
  std::vector<int> order_;
};

/// Spans kept in memory and written out when the run ends (Chrome trace
/// event format). Single-threaded per log; multi-client workloads keep one
/// log per client and merge them.
class SpanLog {
 public:
  explicit SpanLog(int thread = 0) : thread_(thread) {}

  /// Opens a span under the innermost open one; returns its id.
  int Begin(const std::string& name, std::uint64_t request_id);
  /// Closes span `id` (must be the innermost open span).
  void End(int id);
  double Seconds(int id) const;
  void Append(const SpanLog& other);
  blinkml::Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t request_id = 0;
    int thread = 0;
  };

  int thread_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, std::uint64_t request_id)
      : log_(log), id_(log->Begin(name, request_id)) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// Closes early and returns the duration in seconds.
  double Close() {
    if (open_) {
      log_->End(id_);
      open_ = false;
    }
    return log_->Seconds(id_);
  }

 private:
  SpanLog* log_;
  int id_;
  bool open_ = true;
};

std::int64_t NowNs();

/// Median with the two middle values averaged; 0 for an empty sample.
double Median(std::vector<double> values);
/// Nearest-rank percentile (p in (0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Sum(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

/// Aggregate CPU time from /proc/stat, in clock ticks.
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
};
CpuTimes ReadCpuTimes();
/// Stolen share of the CPU time between two readings.
double StealShare(const CpuTimes& begin, const CpuTimes& end);

/// Peak resident set (VmHWM) of a process in MB; 0 if unreadable.
double PeakRssMb(pid_t pid);
/// Current resident set (VmRSS) of a process in KB; 0 if unreadable.
double RssKb(pid_t pid);

/// FNV-1a 64 over the encoded bytes of a wire message.
std::uint64_t Digest(const blinkml::net::WireWriter& encoded);

/// Decodes an encoded wire message and encodes it again (the public codec
/// calls, timed by the traced run): true when the bytes agree.
template <typename Wire>
bool RoundTripBytes(const std::vector<std::uint8_t>& bytes) {
  Wire decoded;
  blinkml::net::WireReader reader(bytes.data(), bytes.size());
  if (!blinkml::net::Decode(&reader, &decoded).ok()) return false;
  blinkml::net::WireWriter again;
  (void)blinkml::net::Encode(decoded, &again);
  return again.bytes() == bytes;
}

/// Encodes a message, then RoundTripBytes on the result.
template <typename Wire>
bool RoundTrip(const Wire& message) {
  blinkml::net::WireWriter w;
  (void)blinkml::net::Encode(message, &w);
  return RoundTripBytes<Wire>(w.bytes());
}

/// Frames a server rejected, over every rejection reason.
std::uint64_t RejectedTotal(const blinkml::net::ServerStatsWire& s);

/// Directory for sockets and trace files, inside the working directory.
std::string OutDir();

/// The end-to-end metric names every workload reports (shared names).
void AddEndToEnd(Outcome* out, double setup_s, double requests_per_s,
                 const std::vector<double>& latencies_ms,
                 double tail_percentile, std::int64_t ok_and_checked,
                 double peak_rss_mb, double sample_fraction_mean,
                 double contract_met_ratio);

Outcome RunTrainDense(const Options& options);
Outcome RunSearchSparse(const Options& options);
Outcome RunPredictSharded(const Options& options);

}  // namespace bench

#endif  // BLINKML_BENCH_E2E_BENCH_H_
