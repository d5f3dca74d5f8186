#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace bench {

std::uint64_t SeqRng::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SeqRng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double LogScale(double lo, double hi, double u) {
  return std::exp(std::log(lo) + u * (std::log(hi) - std::log(lo)));
}

double SeqRng::LogUniform(double lo, double hi) {
  return LogScale(lo, hi, Uniform());
}

int SeqRng::Geometric(double mean) {
  const double p = 1.0 / mean;
  const double u = 1.0 - Uniform();  // (0, 1]
  return 1 + static_cast<int>(std::floor(std::log(u) / std::log(1.0 - p)));
}

double ShuffledGrid::Next() {
  if (order_.empty()) {
    offset_ = std::fmod(0.5 + 0.6180339887498949 * blocks_++, 1.0);
    for (int k = points_ - 1; k >= 0; --k) order_.push_back(k);
    // Fisher-Yates over the block's points.
    for (std::size_t k = order_.size(); k > 1; --k) {
      std::swap(order_[k - 1], order_[rng_->Next() % k]);
    }
  }
  const int point = order_.back();
  order_.pop_back();
  return (point + offset_) / points_;
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::Begin(const std::string& name, std::uint64_t request_id) {
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  span.parent = open_.empty() ? -1 : open_.back();
  span.request_id = request_id;
  span.thread = thread_;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanLog::End(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double SpanLog::Seconds(int id) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

void SpanLog::Append(const SpanLog& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
}

blinkml::Status SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return blinkml::Status::IOError("cannot write " + path);
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"request_id\":%llu}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.thread,
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent, static_cast<unsigned long long>(s.request_id));
    out << buf;
  }
  out << "\n]}\n";
  out.close();
  return out ? blinkml::Status::OK()
             : blinkml::Status::IOError("short write to " + path);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : Sum(values) / static_cast<double>(values.size());
}

namespace {

/// A "Key:   <value> kB" line of /proc/<pid>/status, in kB.
double ProcStatusKb(pid_t pid, const std::string& key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      std::istringstream fields(line.substr(key.size() + 1));
      double kb = 0.0;
      fields >> kb;
      return kb;
    }
  }
  return 0.0;
}

}  // namespace

CpuTimes ReadCpuTimes() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes t;
  for (int field = 0; field < 8 && in; ++field) {
    double ticks = 0.0;
    in >> ticks;
    t.total += ticks;
    if (field == 7) t.steal = ticks;
  }
  return t;
}

double StealShare(const CpuTimes& begin, const CpuTimes& end) {
  const double total = end.total - begin.total;
  return total > 0.0 ? (end.steal - begin.steal) / total : 0.0;
}

double PeakRssMb(pid_t pid) { return ProcStatusKb(pid, "VmHWM") / 1024.0; }

double RssKb(pid_t pid) { return ProcStatusKb(pid, "VmRSS"); }

std::uint64_t Digest(const blinkml::net::WireWriter& encoded) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t byte : encoded.bytes()) {
    h ^= byte;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t RejectedTotal(const blinkml::net::ServerStatsWire& s) {
  return s.rejected_malformed + s.rejected_version + s.rejected_unknown_verb +
         s.rejected_decode + s.rejected_deadline + s.rejected_rate +
         s.rejected_quota + s.rejected_queue_full + s.rejected_shed +
         s.rejected_max_connections;
}

std::string OutDir() {
  const std::string dir = ".bench_out";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

void AddEndToEnd(Outcome* out, double setup_s, double requests_per_s,
                 const std::vector<double>& latencies_ms,
                 double tail_percentile, std::int64_t ok_and_checked,
                 double peak_rss_mb, double sample_fraction_mean,
                 double contract_met_ratio) {
  out->tail_percentile = tail_percentile;
  out->tail_samples = static_cast<std::int64_t>(latencies_ms.size());
  auto& m = out->end_to_end;
  out->Add(&m, "setup_s", "s", setup_s);
  out->Add(&m, "requests_per_s", "1/s", requests_per_s);
  out->Add(&m, "latency_p50_ms", "ms", Median(latencies_ms));
  out->Add(&m, "latency_tail_ms", "ms",
           Percentile(latencies_ms, tail_percentile));
  out->Add(&m, "success_ratio", "ratio",
           out->attempted > 0 ? static_cast<double>(ok_and_checked) /
                                    static_cast<double>(out->attempted)
                              : 0.0);
  out->Add(&m, "peak_rss_mb", "MB", peak_rss_mb);
  out->Add(&m, "sample_fraction_mean", "ratio", sample_fraction_mean);
  out->Add(&m, "contract_met_ratio", "ratio", contract_met_ratio);
}

}  // namespace bench
