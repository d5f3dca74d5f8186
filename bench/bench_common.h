// Shared infrastructure for the experiment harnesses (one binary per paper
// table/figure). Provides the eight (model, dataset) workloads of the
// evaluation section at single-machine scale, table printing, and the
// BLINKML_SCALE / BLINKML_REPEATS environment knobs.
//
// Scaling note: every harness honors BLINKML_SCALE (a positive float;
// default 1.0) multiplying the dataset sizes, so `BLINKML_SCALE=10
// ./bench_fig5_speedup` approaches the paper's row counts. Defaults are
// chosen so each binary finishes in a few minutes on one machine. The
// *shape* of each result (who wins, how ratios move with the requested
// accuracy, where crossovers fall) is the reproduction target; absolute
// times differ from the paper's Spark cluster by construction.

#ifndef BLINKML_BENCH_BENCH_COMMON_H_
#define BLINKML_BENCH_BENCH_COMMON_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/coordinator.h"
#include "data/dataset.h"
#include "models/model_spec.h"
#include "util/stats.h"  // nearest-rank Percentile (shared with obs)

namespace blinkml {
namespace bench {

/// One (model class, dataset) combination of the paper's evaluation.
struct Workload {
  std::string name;          // e.g. "LR, Criteo"
  std::string model_tag;     // "Lin" / "LR" / "ME" / "PPCA"
  std::shared_ptr<ModelSpec> spec;
  Dataset data;
  /// Initial-sample size appropriate for this workload's parameter count
  /// (kept inside the asymptotic regime n_0 >> p that the bounds rest on).
  Dataset::Index initial_sample_size;
  /// Requested accuracies to sweep, as (1 - eps) values.
  std::vector<double> accuracy_levels;
};

/// BLINKML_SCALE (default 1.0).
double ScaleFromEnv();

/// BLINKML_REPEATS (default `fallback`).
int RepeatsFromEnv(int fallback);

/// The eight paper workloads, generated at `scale` x the default sizes.
/// `which` selects a subset by model tag ("" = all).
std::vector<Workload> MakePaperWorkloads(double scale,
                                         const std::string& which = "");

/// A BlinkConfig tuned for a workload (initial sample size, statistics
/// sample, Monte-Carlo budgets), seeded with `seed`.
BlinkConfig ConfigFor(const Workload& workload, std::uint64_t seed);

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

/// Parses the shared flags. The thread cap is also remembered
/// process-wide and applied by ConfigFor, so the figure harnesses honor
/// --threads without per-bench plumbing; benches that build their own
/// BlinkConfig set `config.runtime.num_threads = flags.threads`.
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

/// Prints one row of pipe-separated cells with the given widths.
void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);

/// Formats a (1 - eps) accuracy level: 0.95 -> "95%", 0.9995 -> "99.95%".
std::string AccuracyLabel(double level);

}  // namespace bench
}  // namespace blinkml

#endif  // BLINKML_BENCH_BENCH_COMMON_H_
