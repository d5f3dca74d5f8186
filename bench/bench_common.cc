#include "bench/bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "data/generators.h"
#include "models/linear_regression.h"
#include "obs/trace.h"
#include "models/logistic_regression.h"
#include "models/max_entropy.h"
#include "models/ppca.h"
#include "util/string_util.h"

namespace blinkml {
namespace bench {

namespace {

std::int64_t Scaled(double scale, std::int64_t base) {
  const double v = scale * static_cast<double>(base);
  return std::max<std::int64_t>(1000, static_cast<std::int64_t>(v));
}

const std::vector<double> kGlmLevels = {0.80, 0.85, 0.90, 0.95,
                                        0.96, 0.97, 0.98, 0.99};
const std::vector<double> kPpcaLevels = {0.90,   0.95,   0.99,  0.995,
                                         0.999,  0.9995, 0.9999};

}  // namespace

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

std::vector<Workload> MakePaperWorkloads(double scale,
                                         const std::string& which) {
  std::vector<Workload> out;
  auto want = [&](const char* tag) {
    return which.empty() || which == tag;
  };

  // Sizes are chosen so that (a) N / n_0 is large enough for sampling to
  // pay off on a fast single-node substrate (the paper's N / n_0 reaches
  // 800; memory limits us to 25-80), and (b) every workload stays inside
  // the asymptotic regime n_0 >> p (harness_test checks it).
  if (want("Lin")) {
    out.push_back({"Lin, Gas", "Lin",
                   std::make_shared<LinearRegressionSpec>(1e-3),
                   MakeGasLike(Scaled(scale, 800'000), 11, /*dim=*/57),
                   10'000, kGlmLevels});
    out.push_back({"Lin, Power", "Lin",
                   std::make_shared<LinearRegressionSpec>(1e-3),
                   MakePowerLike(Scaled(scale, 500'000), 12, /*dim=*/114),
                   10'000, kGlmLevels});
  }
  if (want("LR")) {
    out.push_back({"LR, Criteo", "LR",
                   std::make_shared<LogisticRegressionSpec>(1e-3),
                   MakeCriteoLike(Scaled(scale, 500'000), 13, /*dim=*/20'000,
                                  /*nnz_per_row=*/39),
                   10'000, kGlmLevels});
    out.push_back({"LR, HIGGS", "LR",
                   std::make_shared<LogisticRegressionSpec>(1e-3),
                   MakeHiggsLike(Scaled(scale, 800'000), 14, /*dim=*/28),
                   10'000, kGlmLevels});
  }
  if (want("ME")) {
    // MNIST scaled to 12x12 pixels: p = 10 * 144 = 1440 parameters, inside
    // the n_0 = 10K asymptotic regime.
    out.push_back({"ME, MNIST", "ME", std::make_shared<MaxEntropySpec>(1e-3),
                   MakeMnistLike(Scaled(scale, 250'000), 15, /*dim=*/144,
                                 /*num_classes=*/10),
                   10'000, kGlmLevels});
    // Yelp scaled to a 500-word vocabulary: p = 2500, keeping n_0 / p = 4
    // (the asymptotic-regime requirement binds here; at p = 5000 the
    // initial model partially overfits and the estimator's variance is too
    // small).
    out.push_back({"ME, Yelp", "ME", std::make_shared<MaxEntropySpec>(1e-3),
                   MakeYelpLike(Scaled(scale, 300'000), 16, /*dim=*/500),
                   10'000, kGlmLevels});
  }
  if (want("PPCA")) {
    Dataset mnist = MakeMnistLike(Scaled(scale, 200'000), 17, /*dim=*/196,
                                  /*num_classes=*/10);
    out.push_back({"PPCA, MNIST", "PPCA", std::make_shared<PpcaSpec>(10),
                   Dataset(Matrix(mnist.dense()), Vector(),
                           Task::kUnsupervised),
                   10'000, kPpcaLevels});
    Dataset higgs = MakeHiggsLike(Scaled(scale, 800'000), 18, /*dim=*/28);
    out.push_back({"PPCA, HIGGS", "PPCA", std::make_shared<PpcaSpec>(10),
                   Dataset(Matrix(higgs.dense()), Vector(),
                           Task::kUnsupervised),
                   10'000, kPpcaLevels});
  }
  return out;
}

namespace {
// The --threads cap ParseBenchFlags saw, applied by ConfigFor (see the
// header note). Benches parse flags once at the top of main, before any
// config is built.
int g_bench_threads = 0;
}  // namespace

BlinkConfig ConfigFor(const Workload& workload, std::uint64_t seed) {
  BlinkConfig config;
  config.initial_sample_size = workload.initial_sample_size;
  config.holdout_size = 2000;
  // The Gram eigendecomposition costs O(n_s^3); for large parameter counts
  // a leaner statistics sample keeps the overhead proportionate (the rank
  // the extra rows would add is dominated by the sampler's rank cap).
  const Dataset::Index p = workload.spec->ParamDim(workload.data);
  config.stats_sample_size = p > 1200 ? 640 : 1024;
  config.accuracy_samples = 256;
  config.size_samples = 192;
  config.seed = seed;
  config.runtime.num_threads = g_bench_threads;
  return config;
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
  g_bench_threads = flags.threads;
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

void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int width = i < widths.size() ? widths[i] : 12;
    line += StrFormat("%-*s", width, cells[i].c_str());
    if (i + 1 < cells.size()) line += "| ";
  }
  std::printf("%s\n", line.c_str());
}

std::string AccuracyLabel(double level) {
  const double pct = level * 100.0;
  if (std::fabs(pct - std::round(pct)) < 1e-9) {
    return StrFormat("%.0f%%", pct);
  }
  std::string s = StrFormat("%.2f%%", pct);
  // Trim a trailing zero ("99.50%" -> "99.5%").
  const std::size_t pos = s.find('%');
  if (pos != std::string::npos && pos > 0 && s[pos - 1] == '0') {
    s.erase(pos - 1, 1);
  }
  return s;
}

}  // namespace bench
}  // namespace blinkml
