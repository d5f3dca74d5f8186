// Tests for the parallel runtime: pool lifecycle, exception propagation,
// the determinism contract across thread counts, and end-to-end
// equivalence of the parallel statistics/estimation paths with serial
// execution.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/accuracy_estimator.h"
#include "core/sample_size_estimator.h"
#include "core/statistics.h"
#include "data/generators.h"
#include "models/logistic_regression.h"
#include "models/trainer.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "tests/test_util.h"

namespace blinkml {
namespace {

TEST(ThreadPool, StartupShutdownAndTaskExecution) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.parallelism(), 4);
    std::atomic<int> remaining{100};
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&] {
        ++count;
        --remaining;
      });
    }
    // Destruction drains the queue before joining the workers.
    while (remaining.load() > 0) std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SingleThreadPoolSpawnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.parallelism(), 1);
  // ParallelFor on a 1-wide pool runs inline and still covers the range.
  RuntimeOptions options;
  options.pool = &pool;
  RuntimeScope scope(options);
  std::vector<int> hits(64, 0);
  ParallelFor(0, 64, [&](ParallelIndex b, ParallelIndex e) {
    for (ParallelIndex i = b; i < e; ++i) hits[i] += 1;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, ChunkLayoutIsThreadCountIndependent) {
  const ChunkLayout a = ComputeChunks(1000, 8);
  EXPECT_EQ(a.chunk_size, 16);  // ceil(1000 / 64) = 16 > grain
  EXPECT_EQ(a.num_chunks, 63);
  const ChunkLayout b = ComputeChunks(100, 8);
  EXPECT_EQ(b.chunk_size, 8);
  EXPECT_EQ(b.num_chunks, 13);
  EXPECT_EQ(ComputeChunks(0, 8).num_chunks, 0);
}

// Memory-safety contract of MaxChunksForRanges: callers (the eigensolver's
// partial-slot buffer) allocate one buffer for MANY sub-ranges m <= n, and
// num_chunks is not monotone in the range size. Pointwise bound plus
// monotonicity of the bound together give: for all m <= n,
// ComputeChunks(m).num_chunks <= MaxChunksForRanges(n).
TEST(Parallel, MaxChunksForRangesBoundsEverySubRange) {
  for (const ParallelIndex grain : {1, 8, 64}) {
    ParallelIndex prev_bound = 0;
    for (ParallelIndex m = 1; m <= 4096; ++m) {
      const ParallelIndex bound = MaxChunksForRanges(m, grain);
      ASSERT_GE(bound, prev_bound) << "m=" << m << " grain=" << grain;
      ASSERT_LE(ComputeChunks(m, grain).num_chunks, bound)
          << "m=" << m << " grain=" << grain;
      prev_bound = bound;
    }
  }
  EXPECT_EQ(MaxChunksForRanges(0, 8), 0);
}

TEST(Parallel, ForCoversRangeExactlyOnce) {
  ThreadPool pool(8);
  RuntimeOptions options;
  options.pool = &pool;
  RuntimeScope scope(options);
  constexpr ParallelIndex kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(0, kN, [&](ParallelIndex b, ParallelIndex e) {
    for (ParallelIndex i = b; i < e; ++i) ++hits[i];
  });
  for (ParallelIndex i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Parallel, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  RuntimeOptions options;
  options.pool = &pool;
  RuntimeScope scope(options);
  EXPECT_THROW(
      ParallelFor(0, 1000,
                  [&](ParallelIndex b, ParallelIndex) {
                    if (b >= 0) throw std::runtime_error("chunk failure");
                  }),
      std::runtime_error);
  // The pool survives a failed region and keeps executing work.
  std::vector<int> hits(32, 0);
  ParallelFor(0, 32, [&](ParallelIndex b, ParallelIndex e) {
    for (ParallelIndex i = b; i < e; ++i) hits[i] = 1;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, NestedRegionsRunInline) {
  ThreadPool pool(4);
  RuntimeOptions options;
  options.pool = &pool;
  RuntimeScope scope(options);
  std::atomic<int> total{0};
  ParallelFor(
      0, 256,
      [&](ParallelIndex b, ParallelIndex e) {
        EXPECT_TRUE(InParallelRegion());
        // Inner region must not deadlock waiting for occupied workers.
        ParallelFor(0, 8, [&](ParallelIndex ib, ParallelIndex ie) {
          total += static_cast<int>((ie - ib) * (e - b > 0 ? 1 : 0));
        });
      },
      /*grain=*/4);
  EXPECT_GT(total.load(), 0);
}

// Reduction result must be bitwise identical for 1, 2, and 8 threads
// (fixed chunk layout, combined in chunk order).
TEST(Parallel, ReduceIsDeterministicAcrossThreadCounts) {
  // Summands with wildly varying magnitudes so any reassociation of the
  // combine order would change the bits.
  constexpr ParallelIndex kN = 4099;
  std::vector<double> xs(kN);
  Rng rng(7);
  for (auto& x : xs) x = rng.Normal() * std::pow(10.0, rng.Uniform(-8, 8));

  auto sum_with_threads = [&](int threads) {
    ThreadPool pool(threads);
    RuntimeOptions options;
    options.pool = &pool;
    RuntimeScope scope(options);
    return ParallelReduce(
        ParallelIndex{0}, kN, 0.0,
        [&](ParallelIndex b, ParallelIndex e) {
          double s = 0.0;
          for (ParallelIndex i = b; i < e; ++i) s += xs[i];
          return s;
        },
        [](double acc, double part) { return acc + part; });
  };

  const double s1 = sum_with_threads(1);
  const double s2 = sum_with_threads(2);
  const double s8 = sum_with_threads(8);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1, s8);

  // A non-commutative combine (append the chunk index) under uneven
  // per-chunk delays, so later chunks often finish first: the fold must
  // still see the chunks in index order.
  constexpr ParallelIndex kChunks = 24;
  std::vector<ParallelIndex> in_order(kChunks);
  std::iota(in_order.begin(), in_order.end(), ParallelIndex{0});
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    RuntimeOptions options;
    options.pool = &pool;
    RuntimeScope scope(options);
    const std::vector<ParallelIndex> order = ParallelReduce(
        ParallelIndex{0}, kChunks, std::vector<ParallelIndex>{},
        [](ParallelIndex b, ParallelIndex) {
          std::this_thread::sleep_for(
              std::chrono::microseconds((kChunks - b) % 4 * 300));
          return std::vector<ParallelIndex>{b};
        },
        [](std::vector<ParallelIndex> acc, std::vector<ParallelIndex>& part) {
          acc.insert(acc.end(), part.begin(), part.end());
          return acc;
        },
        /*grain=*/1);
    EXPECT_EQ(order, in_order) << threads << " threads";
  }

  // Disabling the runtime keeps the chunk layout and hence the bits.
  RuntimeOptions serial;
  serial.enabled = false;
  RuntimeScope scope(serial);
  const double s0 = ParallelReduce(
      ParallelIndex{0}, kN, 0.0,
      [&](ParallelIndex b, ParallelIndex e) {
        double s = 0.0;
        for (ParallelIndex i = b; i < e; ++i) s += xs[i];
        return s;
      },
      [](double acc, double part) { return acc + part; });
  EXPECT_EQ(s0, s1);
}

// A reduction partial that counts the live instances holding a value
// (moved-from instances hold none) and the peak of that count. The
// reductions below run inline, one thread at a time.
struct CountedPartial {
  static int live;
  static int peak;

  CountedPartial() = default;
  explicit CountedPartial(double v) : value(v), holds(true) {
    peak = std::max(peak, ++live);
  }
  CountedPartial(CountedPartial&& o) noexcept
      : value(o.value), holds(o.holds) {
    o.holds = false;
  }
  CountedPartial& operator=(CountedPartial o) noexcept {
    std::swap(value, o.value);
    std::swap(holds, o.holds);
    return *this;
  }
  ~CountedPartial() {
    if (holds) --live;
  }

  double value = 0.0;
  bool holds = false;
};
int CountedPartial::live = 0;
int CountedPartial::peak = 0;

// Sums 0 + 1 + ... + 15 over 16 chunks of CountedPartials; returns the
// peak number alive at once.
int PeakPartialsOfInlineSum() {
  CountedPartial::peak = 0;
  const CountedPartial total = ParallelReduce(
      ParallelIndex{0}, ParallelIndex{16}, CountedPartial(0.0),
      [](ParallelIndex b, ParallelIndex) {
        return CountedPartial(static_cast<double>(b));
      },
      [](CountedPartial acc, const CountedPartial& part) {
        acc.value += part.value;
        return acc;
      },
      /*grain=*/1);
  EXPECT_EQ(total.value, 120.0);
  return CountedPartial::peak;
}

// Partials fold as soon as every earlier chunk has folded, so an inline
// reduction holds the accumulator and the chunk in flight, never one
// partial per chunk.
TEST(Parallel, InlineReduceHoldsAtMostTwoPartials) {
  {
    ThreadPool pool(1);
    RuntimeOptions options;
    options.pool = &pool;
    RuntimeScope scope(options);
    EXPECT_LE(PeakPartialsOfInlineSum(), 2) << "1-lane pool";
  }
  {
    RuntimeOptions serial;
    serial.enabled = false;
    RuntimeScope scope(serial);
    EXPECT_LE(PeakPartialsOfInlineSum(), 2) << "runtime disabled";
  }
  {
    ThreadPool pool(2);
    RuntimeOptions options;
    options.pool = &pool;
    RuntimeScope scope(options);
    int nested_peak = 0;
    ParallelFor(
        0, 2,
        [&](ParallelIndex b, ParallelIndex) {
          if (b == 0) nested_peak = PeakPartialsOfInlineSum();
        },
        /*grain=*/1);
    EXPECT_LE(nested_peak, 2) << "nested region";
  }
  EXPECT_EQ(CountedPartial::live, 0);
}

// A free lane takes the lowest unclaimed chunk, so one slow chunk delays
// only its own lane: at 2 lanes, whichever lane draws chunk 0 blocks until
// every other chunk has run, which the other lane does alone. (A fixed
// lane stride would leave chunks 2, 4, ... to the blocked lane.)
TEST(Parallel, SlowChunkDoesNotStrandLaterChunks) {
  ThreadPool pool(2);
  RuntimeOptions options;
  options.pool = &pool;
  RuntimeScope scope(options);
  constexpr ParallelIndex kChunks = 16;
  std::mutex mu;
  std::condition_variable cv;
  ParallelIndex others_done = 0;
  bool drained = false;
  ParallelFor(
      0, kChunks,
      [&](ParallelIndex b, ParallelIndex) {
        std::unique_lock<std::mutex> lock(mu);
        if (b == 0) {
          drained = cv.wait_for(lock, std::chrono::seconds(10), [&] {
            return others_done == kChunks - 1;
          });
        } else {
          ++others_done;
          cv.notify_all();
        }
      },
      /*grain=*/1);
  EXPECT_TRUE(drained);
}

// A region's caller waits only for chunks another lane has claimed, never
// for a lane task still queued behind another region's long chunk.
TEST(Parallel, RegionDoesNotWaitForQueuedLaneTask) {
  ThreadPool pool(2);  // one worker
  RuntimeOptions options;
  options.pool = &pool;
  std::mutex mu;
  std::condition_variable cv;
  bool worker_parked = false;
  bool release = false;

  // Another thread's region parks the pool's only worker inside a chunk.
  std::thread parker([&] {
    RuntimeScope scope(options);
    const std::thread::id caller = std::this_thread::get_id();
    ParallelFor(
        0, 2,
        [&](ParallelIndex, ParallelIndex) {
          std::unique_lock<std::mutex> lock(mu);
          if (std::this_thread::get_id() == caller) {
            cv.wait_for(lock, std::chrono::seconds(30),
                        [&] { return worker_parked; });
          } else {
            worker_parked = true;
            cv.notify_all();
            cv.wait_for(lock, std::chrono::seconds(30),
                        [&] { return release; });
          }
        },
        /*grain=*/1);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return worker_parked; }));
  }

  // This region's lane task queues behind the parked chunk; its caller
  // runs all 64 chunks itself and must return without it.
  std::future<void> region = std::async(std::launch::async, [&] {
    RuntimeScope scope(options);
    ParallelFor(0, 64, [](ParallelIndex, ParallelIndex) {}, /*grain=*/1);
  });
  const bool returned = region.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  region.get();
  parker.join();
  EXPECT_TRUE(returned);
}

// Full-gradient evaluation (the trainers' hot loop) is bitwise
// reproducible across thread counts.
TEST(Parallel, ModelGradientDeterministicAcrossThreadCounts) {
  const Dataset data = MakeSyntheticLogistic(3000, 24, /*seed=*/3);
  const LogisticRegressionSpec spec(1e-3);
  Rng rng(11);
  const Vector theta = testing::RandomVector(24, &rng);

  auto gradient_with_threads = [&](int threads) {
    ThreadPool pool(threads);
    RuntimeOptions options;
    options.pool = &pool;
    RuntimeScope scope(options);
    Vector grad;
    spec.Gradient(theta, data, &grad);
    return grad;
  };

  const Vector g1 = gradient_with_threads(1);
  const Vector g2 = gradient_with_threads(2);
  const Vector g8 = gradient_with_threads(8);
  ASSERT_EQ(g1.size(), g8.size());
  for (Vector::Index i = 0; i < g1.size(); ++i) {
    EXPECT_EQ(g1[i], g2[i]);
    EXPECT_EQ(g1[i], g8[i]);
  }
}

struct StatisticsRun {
  Vector variances;
  double accuracy_epsilon = 0.0;
  Dataset::Index sample_size = 0;
};

// One full statistics + estimation pass under the given runtime options.
StatisticsRun RunStatistics(const RuntimeOptions& options,
                            Matrix::Index stats_sample) {
  RuntimeScope scope(options);
  const Dataset data = MakeSyntheticLogistic(2000, 20, /*seed=*/5);
  const LogisticRegressionSpec spec(1e-2);
  const auto model = ModelTrainer().Train(spec, data);
  BLINKML_CHECK(model.ok());

  StatsOptions stats_options;
  stats_options.method = StatsMethod::kObservedFisher;
  stats_options.stats_sample_size = stats_sample;
  Rng stats_rng(17);
  auto sampler = ComputeStatistics(spec, model->theta, data, stats_options,
                                   &stats_rng);
  BLINKML_CHECK(sampler.ok());

  StatisticsRun run;
  auto diag = sampler->VarianceDiagonal();
  BLINKML_CHECK(diag.ok());
  run.variances = std::move(*diag);

  const Dataset holdout = MakeSyntheticLogistic(500, 20, /*seed=*/6);
  AccuracyOptions acc_options;
  acc_options.num_samples = 128;
  Rng acc_rng(23);
  auto acc = EstimateAccuracy(spec, model->theta, data.num_rows(),
                              10 * data.num_rows(), *sampler, holdout,
                              acc_options, &acc_rng);
  BLINKML_CHECK(acc.ok());
  run.accuracy_epsilon = acc->epsilon;

  SampleSizeOptions size_options;
  size_options.num_samples = 64;
  size_options.epsilon = acc->epsilon / 4.0;
  Rng size_rng(29);
  auto size = EstimateSampleSize(spec, model->theta, data.num_rows(),
                                 10 * data.num_rows(), *sampler, holdout,
                                 size_options, &size_rng);
  BLINKML_CHECK(size.ok());
  run.sample_size = size->sample_size;
  return run;
}

// ComputeStatistics and the two Monte-Carlo estimators agree between
// serial execution and 1/2/8-thread parallel execution to 1e-10 relative
// tolerance, on both the small-dimension (p <= n_s) and Gram (p > n_s)
// ObservedFisher paths.
TEST(Parallel, StatisticsEquivalentSerialVsParallel) {
  for (const Matrix::Index stats_sample : {Matrix::Index{256},   // p <= n_s
                                           Matrix::Index{16}}) {  // p > n_s
    RuntimeOptions serial;
    serial.enabled = false;
    const StatisticsRun base = RunStatistics(serial, stats_sample);

    for (const int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      RuntimeOptions options;
      options.pool = &pool;
      options.num_threads = threads;
      const StatisticsRun run = RunStatistics(options, stats_sample);

      ASSERT_EQ(base.variances.size(), run.variances.size());
      for (Vector::Index i = 0; i < base.variances.size(); ++i) {
        const double scale = std::max(std::abs(base.variances[i]), 1e-300);
        EXPECT_LE(std::abs(base.variances[i] - run.variances[i]) / scale,
                  1e-10)
            << "variance " << i << " with " << threads << " threads";
      }
      const double eps_scale = std::max(std::abs(base.accuracy_epsilon),
                                        1e-300);
      EXPECT_LE(std::abs(base.accuracy_epsilon - run.accuracy_epsilon) /
                    eps_scale,
                1e-10);
      EXPECT_EQ(base.sample_size, run.sample_size);
    }
  }
}

}  // namespace
}  // namespace blinkml
