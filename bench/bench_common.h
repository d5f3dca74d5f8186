// Shared infrastructure for the bench/ harnesses: the paper's guarantee
// record (bench_guarantee -> BENCH_guarantee.json) and the kernel, serving
// and networking harnesses. Provides the shared flags, the BLINKML_SCALE /
// BLINKML_REPEATS environment knobs, a flat JSON writer, the machine block
// every record carries, and the exact binomial arithmetic the guarantee
// record and coordinator_test judge violation counts by.
//
// Scaling note: BLINKML_SCALE (a positive float; default 1.0) multiplies
// each harness's dataset sizes and BLINKML_REPEATS its repeat count (for
// bench_guarantee, the seeds per cell).

#ifndef BLINKML_BENCH_BENCH_COMMON_H_
#define BLINKML_BENCH_BENCH_COMMON_H_

#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "util/stats.h"  // nearest-rank Percentile (shared with obs)

namespace blinkml {
namespace bench {

/// BLINKML_SCALE (default 1.0).
double ScaleFromEnv();

/// BLINKML_REPEATS (default `fallback`).
int RepeatsFromEnv(int fallback);

// --- Shared command-line flags ----------------------------------------
//
// Every bench binary parses its argv through ParseBenchFlags:
//   --json[=path]  emit the machine-readable summary (path defaults to
//                  the bench's "BENCH_<name>.json");
//   --threads=N    cap the runtime lanes (RuntimeOptions::num_threads;
//                  results are unaffected by the determinism contract);
//   --trace=path   arm the span tracer (obs/trace.h) for the whole run
//                  and dump Chrome trace_event JSON to `path` at exit
//                  (results are bitwise unaffected — instrumentation
//                  only reads the wall clock).
// Unknown flags print a usage line (including any bench-specific extra
// flags) and exit(2) so a typo never silently runs the default
// configuration.

struct BenchFlags {
  bool json = false;
  std::string json_path;
  /// 0 = pool default (BLINKML_NUM_THREADS / hardware concurrency).
  int threads = 0;
  /// Empty = tracing off.
  std::string trace_path;
};

/// A bench-specific `--<name>=<positive int>` flag registered with
/// ParseBenchFlags, so every harness shares one parser (and one
/// unknown-flag rejection path) instead of growing its own.
struct ExtraIntFlag {
  std::string name;  // without the "--" prefix
  std::string help;  // one line for the usage message
  int* value;        // written on parse; untouched when absent
};

/// Parses the shared flags. Benches that build a BlinkConfig set
/// `config.runtime.num_threads = flags.threads`.
BenchFlags ParseBenchFlags(int argc, char** argv,
                           const std::string& default_json_path,
                           const std::vector<ExtraIntFlag>& extra = {});

// Latency percentiles: use blinkml::Percentile (util/stats.h) — the
// nearest-rank implementation moved there so the obs histograms and the
// bench harnesses share one definition.

/// Minimal ordered JSON-object builder (numbers round-trip via %.17g;
/// strings are escaped). Enough for flat metrics plus one level of
/// object arrays — not a general JSON library. The top level renders one
/// field per line; nested objects/array elements render compactly on a
/// single line so the output stays aligned at any depth.
class JsonObject {
 public:
  JsonObject& Number(const std::string& key, double value);
  JsonObject& Int(const std::string& key, long long value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Strings(const std::string& key,
                      const std::vector<std::string>& values);
  JsonObject& Object(const std::string& key, const JsonObject& child);
  JsonObject& Array(const std::string& key,
                    const std::vector<JsonObject>& items);

  /// Rendered object ("{...}"): one field per line at the top level.
  std::string ToString() const;

  /// Single-line rendering (used for nested values).
  std::string ToCompact() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;  // key -> raw
};

/// Writes `content` to `path` (truncating); prints a note to stdout.
bool WriteBenchFile(const std::string& path, const std::string& content);

/// Prints a horizontal rule and a centered title.
void PrintHeader(const std::string& title);

/// The host a record was taken on: CPU model, hardware threads, the
/// kernel ISA the dispatch resolved to, and the lanes the run used.
JsonObject MachineJson(int threads_used);

/// `data` (dense) with a constant-1 column appended. The GLMs fit no
/// intercept, so this is how a count model whose log rate has one is well
/// specified.
Dataset WithConstantColumn(const Dataset& data);

// --- Exact binomial arithmetic ------------------------------------------
//
// A violation of the (epsilon, delta) contract is a Bernoulli event with
// probability at most delta per seed, so the violations of T fixed seeds
// are judged against Bin(T, delta), summed exactly rather than through a
// normal approximation (T is tens to hundreds, delta a few percent).

/// P(X >= k) for X ~ Bin(trials, p).
double BinomialUpperTail(int trials, double p, int k);

/// The most violations a fixed-seed test of `trials` runs allows at a
/// false-alarm rate `alpha` when each run violates with probability p: the
/// smallest k with P(Bin(trials, p) > k) <= alpha (7 of 40, 13 of 100 and
/// 21 of 200 at p = 0.05, alpha = 1e-3).
int BinomialUpperQuantile(int trials, double p, double alpha);

/// Exact one-sided Clopper-Pearson upper bound at confidence 1 - alpha on
/// the violation probability after `violations` of `trials`: the p at
/// which P(Bin(trials, p) <= violations) = alpha (1 when every run
/// violated).
double ClopperPearsonUpper(int violations, int trials, double alpha);

}  // namespace bench
}  // namespace blinkml

#endif  // BLINKML_BENCH_BENCH_COMMON_H_
