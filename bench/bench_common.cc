#include "bench/bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "obs/trace.h"
#include "runtime/runtime_options.h"
#include "util/check.h"
#include "util/string_util.h"

namespace blinkml {
namespace bench {

double ScaleFromEnv() {
  const char* env = std::getenv("BLINKML_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

int RepeatsFromEnv(int fallback) {
  const char* env = std::getenv("BLINKML_REPEATS");
  if (env == nullptr) return fallback;
  const int v = std::atoi(env);
  return v > 0 ? v : fallback;
}

BenchFlags ParseBenchFlags(int argc, char** argv,
                           const std::string& default_json_path,
                           const std::vector<ExtraIntFlag>& extra) {
  BenchFlags flags;
  const auto usage_and_exit = [&](const char* complaint,
                                  const char* offender) {
    std::fprintf(stderr,
                 "%s %s\nusage: %s [--json[=path]] [--threads=N] "
                 "[--trace=path]",
                 complaint, offender, argv[0]);
    for (const ExtraIntFlag& f : extra) {
      std::fprintf(stderr, " [--%s=N]", f.name.c_str());
    }
    std::fprintf(stderr, "\n");
    for (const ExtraIntFlag& f : extra) {
      std::fprintf(stderr, "  --%s=N  %s\n", f.name.c_str(), f.help.c_str());
    }
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--json") {
      flags.json = true;
      flags.json_path = default_json_path;
    } else if (StartsWith(arg, "--json=")) {
      flags.json = true;
      flags.json_path = std::string(arg.substr(7));
      if (flags.json_path.empty()) flags.json_path = default_json_path;
    } else if (StartsWith(arg, "--threads=")) {
      const int v = std::atoi(argv[i] + 10);
      if (v <= 0) usage_and_exit("--threads needs a positive integer, got",
                                 argv[i]);
      flags.threads = v;
    } else if (StartsWith(arg, "--trace=")) {
      flags.trace_path = std::string(arg.substr(8));
      if (flags.trace_path.empty()) {
        usage_and_exit("--trace needs a file path, got", argv[i]);
      }
    } else {
      bool matched = false;
      for (const ExtraIntFlag& f : extra) {
        const std::string prefix = "--" + f.name + "=";
        if (StartsWith(arg, prefix)) {
          const int v = std::atoi(argv[i] + prefix.size());
          if (v <= 0) {
            usage_and_exit("flag needs a positive integer:", argv[i]);
          }
          *f.value = v;
          matched = true;
          break;
        }
      }
      if (!matched) usage_and_exit("unknown flag", argv[i]);
    }
  }
  if (flags.json && default_json_path.empty()) {
    // Harnesses without JSON output pass an empty default path; flag the
    // no-op instead of silently producing nothing.
    std::fprintf(stderr, "note: %s has no JSON output; --json is ignored\n",
                 argv[0]);
    flags.json = false;
  }
  if (!flags.trace_path.empty()) {
    // Armed for the whole run; the StopTracing dump happens at normal
    // process exit so benches need no per-harness plumbing.
    obs::Tracer::Global().Start(flags.trace_path);
    std::atexit([] {
      const Status status = obs::Tracer::Global().Stop();
      if (!status.ok()) {
        std::fprintf(stderr, "trace dump failed: %s\n",
                     status.message().c_str());
      }
    });
  }
  return flags;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (std::isnan(value)) return "null";
  if (std::isinf(value)) return value > 0 ? "1e308" : "-1e308";
  return StrFormat("%.17g", value);
}

}  // namespace

JsonObject& JsonObject::Number(const std::string& key, double value) {
  fields_.emplace_back(key, JsonNumber(value));
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, long long value) {
  fields_.emplace_back(key, StrFormat("%lld", value));
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, "\"" + JsonEscape(value) + "\"");
  return *this;
}

JsonObject& JsonObject::Strings(const std::string& key,
                                const std::vector<std::string>& values) {
  std::string raw = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) raw += ", ";
    raw += "\"" + JsonEscape(values[i]) + "\"";
  }
  fields_.emplace_back(key, raw + "]");
  return *this;
}

JsonObject& JsonObject::Object(const std::string& key,
                               const JsonObject& child) {
  fields_.emplace_back(key, child.ToCompact());
  return *this;
}

JsonObject& JsonObject::Array(const std::string& key,
                              const std::vector<JsonObject>& items) {
  // One compact element per line, indented one level below the key.
  std::string raw = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    raw += i > 0 ? ",\n    " : "\n    ";
    raw += items[i].ToCompact();
  }
  raw += items.empty() ? "]" : "\n  ]";
  fields_.emplace_back(key, std::move(raw));
  return *this;
}

std::string JsonObject::ToString() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    out += i > 0 ? ",\n  " : "\n  ";
    out += "\"" + JsonEscape(fields_[i].first) + "\": " + fields_[i].second;
  }
  out += "\n}";
  return out;
}

std::string JsonObject::ToCompact() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(fields_[i].first) + "\": " + fields_[i].second;
  }
  out += "}";
  return out;
}

bool WriteBenchFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

void PrintHeader(const std::string& title) {
  std::printf("\n===== %s =====\n", title.c_str());
}

JsonObject MachineJson(int threads_used) {
  std::string cpu = "unknown";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      const std::string text(line);
      if (text.rfind("model name", 0) != 0) continue;
      const std::size_t colon = text.find(':');
      if (colon != std::string::npos) {
        cpu = text.substr(colon + 2);
        while (!cpu.empty() && (cpu.back() == '\n' || cpu.back() == ' ')) {
          cpu.pop_back();
        }
      }
      break;
    }
    std::fclose(f);
  }
  return JsonObject()
      .Str("cpu", cpu)
      .Int("hardware_threads",
           static_cast<long long>(std::thread::hardware_concurrency()))
      .Str("kernel_isa", KernelIsaName(CurrentKernelIsa()))
      .Int("threads_used", threads_used);
}

Dataset WithConstantColumn(const Dataset& data) {
  Matrix x(data.num_rows(), data.dim() + 1);
  for (Dataset::Index i = 0; i < data.num_rows(); ++i) {
    for (Dataset::Index j = 0; j < data.dim(); ++j) {
      x(i, j) = data.dense()(i, j);
    }
    x(i, data.dim()) = 1.0;
  }
  return Dataset(std::move(x), Vector(data.labels()), data.task());
}

double BinomialUpperTail(int trials, double p, int k) {
  BLINKML_CHECK(trials >= 0 && p >= 0.0 && p <= 1.0);
  if (k <= 0) return 1.0;
  if (k > trials || p == 0.0) return 0.0;
  if (p == 1.0) return 1.0;
  // Each term C(T, i) p^i (1-p)^(T-i) in log space, so no factor
  // overflows or underflows at any T the harnesses use.
  const double log_p = std::log(p), log_q = std::log1p(-p);
  double tail = 0.0;
  for (int i = k; i <= trials; ++i) {
    tail += std::exp(std::lgamma(trials + 1.0) - std::lgamma(i + 1.0) -
                     std::lgamma(trials - i + 1.0) + i * log_p +
                     (trials - i) * log_q);
  }
  return std::min(tail, 1.0);
}

int BinomialUpperQuantile(int trials, double p, double alpha) {
  int k = 0;
  while (k < trials && BinomialUpperTail(trials, p, k + 1) > alpha) ++k;
  return k;
}

double ClopperPearsonUpper(int violations, int trials, double alpha) {
  BLINKML_CHECK(trials > 0 && violations >= 0 && violations <= trials);
  if (violations == trials) return 1.0;
  // P(X <= violations) = 1 - P(X >= violations + 1) falls as p grows;
  // bisect for the p where it crosses alpha.
  double lo = static_cast<double>(violations) / trials, hi = 1.0;
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double cdf = 1.0 - BinomialUpperTail(trials, mid, violations + 1);
    (cdf > alpha ? lo : hi) = mid;
  }
  return hi;
}

}  // namespace bench
}  // namespace blinkml
