// Observability layer (src/obs/): the metrics registry and the span
// tracer must never perturb results — training is bitwise identical with
// tracing on or off at any thread count — while a traced request through
// the socket must produce correlated spans (queue wait, verb, pipeline
// phases) sharing the wire request_id, and the Metrics verb must return
// a text snapshot with non-zero per-tenant counters and queue gauges.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "models/logistic_regression.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/session_manager.h"
#include "session/training_session.h"
#include "tests/test_util.h"
#include "util/stats.h"

namespace blinkml {
namespace {

using testing::ExpectBitwiseEqual;
using testing::FastConfig;
using testing::kTightContract;

// --- Registry primitives -----------------------------------------------

TEST(MetricsRegistry, CounterGaugeFloatCounterBasics) {
  obs::Registry registry;
  obs::Counter* counter = registry.Counter("requests_total");
  counter->Inc();
  counter->Inc(4);
  EXPECT_EQ(counter->value(), 5u);

  obs::Gauge* gauge = registry.Gauge("depth");
  gauge->Set(7);
  gauge->Add(-3);
  EXPECT_EQ(gauge->value(), 4);

  obs::FloatCounter* seconds = registry.FloatCounter("busy_seconds");
  seconds->Add(0.25);
  seconds->Add(0.5);
  EXPECT_DOUBLE_EQ(seconds->value(), 0.75);
}

TEST(MetricsRegistry, LookupsReturnStablePointersPerLabelSet) {
  obs::Registry registry;
  obs::Counter* a = registry.Counter("hits", {{"tenant", "a"}});
  obs::Counter* b = registry.Counter("hits", {{"tenant", "b"}});
  EXPECT_NE(a, b);
  // Same (name, labels) resolves to the same instance: hot paths cache
  // the pointer once and the counts still aggregate.
  EXPECT_EQ(registry.Counter("hits", {{"tenant", "a"}}), a);
  a->Inc(2);
  b->Inc(3);
  EXPECT_EQ(registry.Counter("hits", {{"tenant", "a"}})->value(), 2u);
  EXPECT_EQ(registry.Counter("hits", {{"tenant", "b"}})->value(), 3u);
}

TEST(MetricsRegistry, HistogramUsesNearestRankOverBucketUpperBounds) {
  obs::Histogram histogram({1.0, 2.0, 4.0});
  EXPECT_EQ(histogram.Percentile(50.0), 0.0);  // empty

  // Buckets (upper bounds): 1.0 x2, 2.0 x1, 4.0 x1, overflow x1.
  for (const double v : {0.5, 1.0, 1.5, 3.0, 9.0}) histogram.Observe(v);
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 15.0);
  EXPECT_EQ(histogram.bucket_count(0), 2u);  // <= 1.0
  EXPECT_EQ(histogram.bucket_count(1), 1u);  // <= 2.0
  EXPECT_EQ(histogram.bucket_count(2), 1u);  // <= 4.0
  EXPECT_EQ(histogram.bucket_count(3), 1u);  // overflow

  // Nearest rank (1-based ceil(p/100 * 5)) over bucket upper bounds,
  // matching blinkml::Percentile's rank rule on the same ordering.
  EXPECT_EQ(histogram.Percentile(20.0), 1.0);   // rank 1
  EXPECT_EQ(histogram.Percentile(50.0), 2.0);   // rank 3
  EXPECT_EQ(histogram.Percentile(80.0), 4.0);   // rank 4
  // Rank 5 lands in the overflow bucket: reported as the largest finite
  // bound (an honest lower bound; the snapshot cannot invent a value).
  EXPECT_EQ(histogram.Percentile(99.0), 4.0);
  EXPECT_EQ(histogram.Percentile(0.0), 1.0);    // clamped to rank 1

  // The shared nearest-rank helper agrees on the equivalent sample list.
  EXPECT_EQ(Percentile({1.0, 1.0, 2.0, 4.0, 4.0}, 50.0), 2.0);
}

TEST(MetricsRegistry, TextSnapshotRendersEveryKindDeterministically) {
  obs::Registry registry;
  registry.Counter("b_total", {{"tenant", "t1"}})->Inc(3);
  registry.Gauge("a_depth")->Set(-2);
  registry.FloatCounter("c_seconds")->Add(1.5);
  registry.Histogram("d_latency_seconds", {}, {0.1, 1.0})->Observe(0.05);

  const std::string snapshot = registry.TextSnapshot();
  EXPECT_NE(snapshot.find("a_depth -2\n"), std::string::npos) << snapshot;
  EXPECT_NE(snapshot.find("b_total{tenant=\"t1\"} 3\n"), std::string::npos)
      << snapshot;
  EXPECT_NE(snapshot.find("c_seconds 1.5\n"), std::string::npos) << snapshot;
  EXPECT_NE(snapshot.find("d_latency_seconds_count 1\n"), std::string::npos)
      << snapshot;
  EXPECT_NE(snapshot.find("d_latency_seconds_p50 0.1"), std::string::npos)
      << snapshot;
  // Lexicographic key order: two snapshots of the same state are
  // byte-identical (scrape diffing relies on it).
  EXPECT_LT(snapshot.find("a_depth"), snapshot.find("b_total"));
  EXPECT_LT(snapshot.find("b_total"), snapshot.find("c_seconds"));
  EXPECT_EQ(snapshot, registry.TextSnapshot());
}

// --- Determinism: instrumentation must not perturb results -------------

// The non-negotiable: training results are bitwise identical with
// tracing enabled or disabled, at 1, 2, and 8 threads.
TEST(Trace, ResultsBitwiseIdenticalWithTracingOnOrOffAtAnyThreadCount) {
  const Dataset data = testing::SmallDenseLogistic(20000, 6, 3);
  const LogisticRegressionSpec spec(1e-3);
  const auto run = [&](int threads) {
    BlinkConfig config = FastConfig(11);
    config.runtime.num_threads = threads;
    TrainingSession session(Dataset(data), config);
    auto result = session.Train(spec, kTightContract);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(*result);
  };

  ASSERT_FALSE(obs::Tracer::Global().enabled());
  const ApproxResult baseline = run(1);
  for (const int threads : {2, 8}) {
    ExpectBitwiseEqual(run(threads), baseline, "tracing off");
  }

  const std::string trace_path =
      ::testing::TempDir() + "blinkml_obs_determinism_" +
      std::to_string(::getpid()) + ".json";
  obs::Tracer::Global().Start(trace_path);
  for (const int threads : {1, 2, 8}) {
    ExpectBitwiseEqual(run(threads), baseline, "tracing on");
  }
  ASSERT_TRUE(obs::Tracer::Global().Stop().ok());
  ASSERT_FALSE(obs::Tracer::Global().enabled());

  // The traced runs produced the pipeline-phase spans.
  const std::vector<obs::TraceEvent> events = obs::Tracer::Global().Snapshot();
  bool saw_phase = false;
  for (const obs::TraceEvent& event : events) {
    saw_phase = saw_phase || std::string(event.cat) == "pipeline";
  }
  EXPECT_TRUE(saw_phase);
  std::remove(trace_path.c_str());
}

// --- Wire surface: Metrics verb + traced request spans -----------------

namespace {

std::string ObsSocketPath(const char* tag) {
  return ::testing::TempDir() + "blinkml_obs_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

net::RegisterDatasetRequest SmallRegistration(const std::string& tenant,
                                              const std::string& name) {
  net::RegisterDatasetRequest request;
  request.tenant = tenant;
  request.name = name;
  request.generator = net::WireGenerator::kSyntheticLogistic;
  request.rows = 4000;
  request.dim = 5;
  request.data_seed = 3;
  request.config.seed = 11;
  request.config.initial_sample_size = 1000;
  request.config.holdout_size = 1000;
  request.config.accuracy_samples = 256;
  request.config.size_samples = 128;
  return request;
}

}  // namespace

TEST(MetricsVerb, SocketRoundTripReturnsCountersAndGauges) {
  SessionManager manager(ServeOptions{0, 2});
  net::ServerOptions options;
  options.unix_path = ObsSocketPath("metrics");
  options.runner_threads = 2;
  net::BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const auto registration = SmallRegistration("tenant-m", "obs-data");
  ASSERT_TRUE(client->RegisterDataset(registration).ok());
  net::TrainRequestWire train;
  train.tenant = "tenant-m";
  train.dataset = "obs-data";
  train.model_class = "LogisticRegression";
  train.epsilon = 0.05;
  train.delta = 0.05;
  ASSERT_TRUE(client->Train(train).ok());

  const auto metrics = client->Metrics("tenant-m");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const std::string& text = metrics->text;

  // Per-tenant, per-verb request counters from admission.
  EXPECT_NE(
      text.find(
          "net_requests_total{tenant=\"tenant-m\",verb=\"RegisterDataset\"} 1"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("net_requests_total{tenant=\"tenant-m\",verb=\"Train\"} 1"),
            std::string::npos)
      << text;
  // Queue-depth gauges (0 at scrape time — both queues are drained).
  EXPECT_NE(text.find("net_queued_jobs 0"), std::string::npos) << text;
  EXPECT_NE(text.find("serve_queued_jobs 0"), std::string::npos) << text;
  // Manager-side serve metrics (the SessionManager job that ran Train).
  EXPECT_NE(text.find("serve_jobs_submitted_total 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("serve_jobs_completed_total 1"), std::string::npos)
      << text;
  // Queue-wait histogram summary lines (3 requests admitted so far).
  EXPECT_NE(text.find("net_queue_wait_seconds_count 3"), std::string::npos)
      << text;
  // Global-registry section: pipeline phases ran inside this process.
  EXPECT_NE(text.find("pipeline_phase_seconds_count{phase=\"initial_train\"}"),
            std::string::npos)
      << text;

  server.Stop();
  std::remove(options.unix_path.c_str());
}

TEST(Trace, TracedSocketTrainProducesCorrelatedSpans) {
  const std::string trace_path = ::testing::TempDir() +
                                 "blinkml_obs_trace_" +
                                 std::to_string(::getpid()) + ".json";
  SessionManager manager(ServeOptions{0, 2});
  net::ServerOptions options;
  options.unix_path = ObsSocketPath("trace");
  options.runner_threads = 2;
  net::BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto registration = SmallRegistration("tenant-t", "obs-traced");
  ASSERT_TRUE(client->RegisterDataset(registration).ok());

  obs::Tracer::Global().Start(trace_path);
  net::TrainRequestWire train;
  train.tenant = "tenant-t";
  train.dataset = "obs-traced";
  train.model_class = "LogisticRegression";
  train.epsilon = 0.05;
  train.delta = 0.05;
  ASSERT_TRUE(client->Train(train).ok());
  // The server records the verb span when the job returns, just after it
  // wrote the response, so the reply can arrive first: wait (bounded) for
  // the span to be recorded before taking the snapshot.
  std::vector<obs::TraceEvent> events;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    events = obs::Tracer::Global().Snapshot();
    const bool verb_recorded =
        std::any_of(events.begin(), events.end(), [](const auto& event) {
          return std::string(event.name) == "Train";
        });
    if (verb_recorded || std::chrono::steady_clock::now() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(obs::Tracer::Global().Stop().ok());

  // One traced request: every span carries the Train frame's request_id.
  std::uint64_t request_id = 0;
  for (const obs::TraceEvent& event : events) {
    if (std::string(event.name) == "queue_wait") {
      EXPECT_EQ(request_id, 0u) << "one traced request, one queue wait";
      request_id = event.request_id;
      EXPECT_EQ(event.tenant, "tenant-t");
      EXPECT_STREQ(event.verb, "Train");
    }
  }
  ASSERT_NE(request_id, 0u) << "queue_wait span missing";

  const auto span_names_for = [&](std::uint64_t id) {
    std::set<std::string> names;
    for (const obs::TraceEvent& event : events) {
      if (event.request_id == id) names.insert(event.name);
    }
    return names;
  };
  const std::set<std::string> spans = span_names_for(request_id);
  // Wire verb span, the manager job, and the pipeline phases all share
  // the id: the request is followable from wire read to kernels.
  EXPECT_TRUE(spans.count("Train")) << "verb span missing";
  EXPECT_TRUE(spans.count("manager:train")) << "manager span missing";
  EXPECT_TRUE(spans.count("initial_train")) << "phase span missing";
  EXPECT_TRUE(spans.count("statistics")) << "phase span missing";
  EXPECT_TRUE(spans.count("mc:accuracy_draws")) << "estimator span missing";

  // The manager runs the job on the runner that executes the verb: no
  // second thread hop between the front's queue and the pipeline.
  const auto tid_of = [&](const char* name) {
    for (const obs::TraceEvent& event : events) {
      if (event.request_id == request_id && std::string(event.name) == name) {
        return event.tid;
      }
    }
    return 0;
  };
  EXPECT_NE(tid_of("Train"), 0);
  EXPECT_EQ(tid_of("manager:train"), tid_of("Train"));

  // The StopTracing dump is a Chrome trace_event JSON document.
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 80);
  EXPECT_NE(json.find("\"queue_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"request_id\":" + std::to_string(request_id)),
            std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");

  server.Stop();
  std::remove(options.unix_path.c_str());
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace blinkml
