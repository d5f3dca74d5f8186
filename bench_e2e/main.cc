// End-to-end benchmark of the BlinkML serving stack (see NOTES.md).
//
//   bench_e2e --workload <train-dense|search-sparse|predict-sharded>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke]
//             [--corrupt-reference]
//
// Prints an environment block, one "metric value unit" line per metric,
// and as its last line one JSON object with the keys correct, attempted,
// failed and metrics (end-to-end metrics with --trace 0, per-layer
// metrics with --trace 1). Exits 1 when an output check or regime guard
// fails, 2 on bad arguments, 3 when the machine is too small for the
// workload's lanes and connections.

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.h"
#include "runtime/runtime_options.h"
#include "runtime/thread_pool.h"

namespace {

using bench::Metric;

struct Spec {
  const char* name;
  const char* unit;
};

// The reported metric set. Every workload prints every name; a per-layer
// metric a workload does not exercise reads 0.
const Spec kEndToEnd[] = {
    {"setup_s", "s"},
    {"requests_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"success_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
    {"sample_fraction_mean", "ratio"},
    {"contract_met_ratio", "ratio"},
};

const Spec kPerLayer[] = {
    {"core.initial_train_ms", "ms"},
    {"core.initial_train_ms.share", "ratio"},
    {"core.statistics_ms", "ms"},
    {"core.statistics_ms.share", "ratio"},
    {"core.accuracy_estimation_ms", "ms"},
    {"core.accuracy_estimation_ms.share", "ratio"},
    {"core.size_estimation_ms", "ms"},
    {"core.size_estimation_ms.share", "ratio"},
    {"core.final_train_ms", "ms"},
    {"core.final_train_ms.share", "ratio"},
    {"core.size_evaluations", "count"},
    {"core.initial_only_ratio", "ratio"},
    {"optim.initial_iterations", "count"},
    {"optim.final_iterations", "count"},
    {"session.make_pipeline_ms", "ms"},
    {"session.make_pipeline_ms.share", "ratio"},
    {"session.search_ms", "ms"},
    {"session.lane_utilization", "ratio"},
    {"session.straggler_ratio", "ratio"},
    {"session.batched_score_groups", "count"},
    {"data.sample_cache_hit_ratio", "ratio"},
    {"data.sample_cache_bypass_ratio", "ratio"},
    {"data.cached_mb", "MB"},
    {"data.gram_cache_hit_ratio", "ratio"},
    {"net.codec_us", "us"},
    {"net.codec_us.share", "ratio"},
    {"net.rpc_direct_us", "us"},
    {"net.rpc_ms", "ms"},
    {"net.overhead_ms", "ms"},
    {"net.overhead_ms.share", "ratio"},
    {"net.rejected_total", "count"},
    {"models.predict_us", "us"},
    {"models.predict_us.share", "ratio"},
    {"shard.rpc_us", "us"},
    {"shard.hop_us", "us"},
    {"shard.hop_us.share", "ratio"},
    {"shard.connect_us", "us"},
    {"shard.rss_kb_per_conn", "KB"},
    {"shard.forwarded", "count"},
    {"shard.unavailable", "count"},
    {"trace.overhead_ms", "ms"},
};

/// Hardware threads this process may run on (what `nproc` prints).
int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

/// Restricts this thread, and every thread and process it starts later, to
/// the last `count` CPUs it may run on. Returns them as a list ("3"), or
/// an empty string when the affinity cannot be set.
std::string PinToLastCpus(int count) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "";
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string list;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && count > 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &pinned);
    list = std::to_string(cpu) + (list.empty() ? "" : "," + list);
    --count;
  }
  if (count > 0 || sched_setaffinity(0, sizeof(pinned), &pinned) != 0) {
    return "";
  }
  return list;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <train-dense|search-sparse|"
               "predict-sharded> --seed <n> --seconds <s> --trace <0|1> "
               "[--smoke] [--corrupt-reference]\n",
               argv0);
  return 2;
}

/// Orders `reported` as `specs` lists them; missing per-layer names read
/// 0. Returns false on a name outside the list or a unit mismatch.
template <std::size_t N>
bool Canonical(const Spec (&specs)[N], const std::vector<Metric>& reported,
               bool fill_missing, std::vector<Metric>* out,
               std::string* error) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : reported) by_name[m.name] = &m;
  for (const Spec& s : specs) {
    auto it = by_name.find(s.name);
    if (it == by_name.end()) {
      if (!fill_missing) {
        *error = std::string("metric not measured: ") + s.name;
        return false;
      }
      out->push_back(Metric{s.name, s.unit, 0.0});
      continue;
    }
    if (it->second->unit != s.unit) {
      *error = std::string("unit mismatch for ") + s.name;
      return false;
    }
    out->push_back(*it->second);
    by_name.erase(it);
  }
  if (!by_name.empty()) {
    *error = "metric outside the reported set: " + by_name.begin()->first;
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (arg == "--corrupt-reference") {
      opt.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      opt.trace = value == "1";
      have_trace = true;
    } else {
      return Usage(argv[0]);
    }
  }
  const bool train = opt.workload == "train-dense";
  const bool search = opt.workload == "search-sparse";
  const bool predict = opt.workload == "predict-sharded";
  if (!(train || search || predict) || opt.seconds <= 0.0 || !have_trace) {
    return Usage(argv[0]);
  }

  // Pool lanes are pinned before the global pool exists; the shard
  // workers inherit the environment. Serving lanes (summed over every
  // serving process; the router runs no parallel regions) plus client
  // connections must fit in nproc.
  const int nproc = Nproc();
  const int lanes = search ? 2 : 1;
  const int serving_lanes = predict ? 2 * lanes : lanes;
  const int connections = 1;
  if (serving_lanes + connections > nproc) {
    std::fprintf(stderr,
                 "refusing to run %s: %d pool lanes + %d connections > "
                 "nproc %d\n",
                 opt.workload.c_str(), serving_lanes, connections, nproc);
    return 3;
  }
  // Each workload runs on as many CPUs as a serving process has pool
  // lanes, and every thread and worker process inherits the pinning. One
  // request is in flight, so no hand-off has to wake an idle vCPU: for
  // predict-sharded the whole client -> router -> worker chain shares one
  // CPU (see NOTES.md).
  const std::string cpus = PinToLastCpus(lanes);
  if (cpus.empty()) {
    std::fprintf(stderr, "could not pin %s to %d CPUs\n",
                 opt.workload.c_str(), lanes);
    return 3;
  }
  ::setenv("BLINKML_NUM_THREADS", std::to_string(lanes).c_str(), 1);
  if (blinkml::ThreadPool::Global().parallelism() != lanes) {
    std::fprintf(stderr, "pool did not take %d lanes\n", lanes);
    return 3;
  }

  const bench::Outcome outcome = train    ? bench::RunTrainDense(opt)
                                 : search ? bench::RunSearchSparse(opt)
                                          : bench::RunPredictSharded(opt);

  std::vector<std::string> errors = outcome.errors;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::string error;
  if (!Canonical(kEndToEnd, outcome.end_to_end, false, &end_to_end, &error)) {
    errors.push_back(error);
  }
  if (opt.trace &&
      !Canonical(kPerLayer, outcome.per_layer, true, &per_layer, &error)) {
    errors.push_back(error);
  }

  const char* isa =
      blinkml::CurrentKernelIsa() == blinkml::KernelIsa::kAvx2 ? "avx2"
                                                                : "scalar";
  std::printf(
      "{\"env\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"smoke\": %d, \"nproc\": %d, "
      "\"pool_lanes_per_process\": %d, \"pool_lanes_total\": %d, "
      "\"client_connections\": %d, \"cpus\": \"%s\", "
      "\"kernel_isa\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"tail_percentile\": %g, \"tail_samples\": %lld, "
      "\"cpu_steal_share\": %.4f}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, opt.smoke ? 1 : 0, nproc,
      outcome.pool_lanes, serving_lanes, outcome.connections, cpus.c_str(),
      isa,
      BENCH_BUILD_TYPE, BENCH_COMPILER, outcome.tail_percentile,
      static_cast<long long>(outcome.tail_samples), outcome.steal_share);
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  const std::vector<Metric>& shown = opt.trace ? per_layer : end_to_end;
  if (opt.trace) {
    for (const Metric& m : end_to_end) {
      std::printf("%-36s %.6g %s (timed pass)\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const Metric& m : shown) {
    std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!errors.empty()) return 1;
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < shown.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", shown[i].name.c_str(), shown[i].value,
                  shown[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
