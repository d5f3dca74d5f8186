// Self-checks for the benchmark harness: the workload definitions must
// respect the method's regime requirement (n_0 well above the parameter
// count, so the MLE asymptotics hold) or the experiment results would be
// invalid. Run at tiny scale so the guards are
// cheap.

#include <cstdlib>

#include <gtest/gtest.h>

#include "bench/bench_common.h"

namespace blinkml {
namespace bench {
namespace {

std::vector<Workload> TinyWorkloads() {
  // 1% scale: generator floors keep every dataset at >= 1000 rows.
  return MakePaperWorkloads(0.01);
}

TEST(Harness, AllEightPaperWorkloadsPresent) {
  const auto workloads = TinyWorkloads();
  ASSERT_EQ(workloads.size(), 8u);
  std::vector<std::string> names;
  for (const auto& w : workloads) names.push_back(w.name);
  EXPECT_EQ(names[0], "Lin, Gas");
  EXPECT_EQ(names[1], "Lin, Power");
  EXPECT_EQ(names[2], "LR, Criteo");
  EXPECT_EQ(names[3], "LR, HIGGS");
  EXPECT_EQ(names[4], "ME, MNIST");
  EXPECT_EQ(names[5], "ME, Yelp");
  EXPECT_EQ(names[6], "PPCA, MNIST");
  EXPECT_EQ(names[7], "PPCA, HIGGS");
}

TEST(Harness, WorkloadsStayInsideAsymptoticRegime) {
  // For dense feature matrices, n_0 must exceed the parameter count by a
  // comfortable margin for the MLE asymptotics to hold — the invariant
  // whose violation produced silently-broken bounds during development. Sparse
  // workloads (hashed CTR, bag-of-words) are exempt: their effective
  // dimension per example is the row nnz (~40-300), far below n_0, which
  // is how the paper's own Criteo (p ~ 1M) and Yelp (p ~ 500K) runs with
  // n_0 = 10K stay inside the regime.
  for (const auto& w : TinyWorkloads()) {
    if (w.data.is_sparse()) {
      const double avg_nnz = static_cast<double>(w.data.sparse().nnz()) /
                             static_cast<double>(w.data.num_rows());
      EXPECT_GE(static_cast<double>(w.initial_sample_size), 10.0 * avg_nnz)
          << w.name;
      continue;
    }
    const auto p = w.spec->ParamDim(w.data);
    EXPECT_GE(w.initial_sample_size, 2 * p)
        << w.name << ": n_0 = " << w.initial_sample_size << ", p = " << p;
  }
}

TEST(Harness, TagFilterSelectsSubsets) {
  EXPECT_EQ(MakePaperWorkloads(0.01, "Lin").size(), 2u);
  EXPECT_EQ(MakePaperWorkloads(0.01, "LR").size(), 2u);
  EXPECT_EQ(MakePaperWorkloads(0.01, "ME").size(), 2u);
  EXPECT_EQ(MakePaperWorkloads(0.01, "PPCA").size(), 2u);
  EXPECT_EQ(MakePaperWorkloads(0.01, "nope").size(), 0u);
}

TEST(Harness, TasksAndSparsityMatchThePaper) {
  const auto workloads = TinyWorkloads();
  EXPECT_EQ(workloads[0].data.task(), Task::kRegression);
  EXPECT_EQ(workloads[1].data.task(), Task::kRegression);
  EXPECT_EQ(workloads[2].data.task(), Task::kBinary);
  EXPECT_TRUE(workloads[2].data.is_sparse());  // Criteo
  EXPECT_EQ(workloads[3].data.task(), Task::kBinary);
  EXPECT_EQ(workloads[4].data.task(), Task::kMulticlass);
  EXPECT_EQ(workloads[4].data.num_classes(), 10);  // MNIST
  EXPECT_EQ(workloads[5].data.task(), Task::kMulticlass);
  EXPECT_TRUE(workloads[5].data.is_sparse());  // Yelp
  EXPECT_EQ(workloads[5].data.num_classes(), 5);
  EXPECT_EQ(workloads[6].data.task(), Task::kUnsupervised);
  EXPECT_EQ(workloads[7].data.task(), Task::kUnsupervised);
}

TEST(Harness, AccuracyLevelsMatchThePaperSweeps) {
  const auto workloads = TinyWorkloads();
  // GLMs sweep 80-99% (8 levels); PPCA sweeps 90-99.99% (7 levels).
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(workloads[i].accuracy_levels.size(), 8u) << i;
    EXPECT_DOUBLE_EQ(workloads[i].accuracy_levels.front(), 0.80);
    EXPECT_DOUBLE_EQ(workloads[i].accuracy_levels.back(), 0.99);
  }
  for (std::size_t i = 6; i < 8; ++i) {
    EXPECT_EQ(workloads[i].accuracy_levels.size(), 7u) << i;
    EXPECT_DOUBLE_EQ(workloads[i].accuracy_levels.front(), 0.90);
    EXPECT_DOUBLE_EQ(workloads[i].accuracy_levels.back(), 0.9999);
  }
}

TEST(Harness, AccuracyLabelFormatting) {
  EXPECT_EQ(AccuracyLabel(0.80), "80%");
  EXPECT_EQ(AccuracyLabel(0.95), "95%");
  EXPECT_EQ(AccuracyLabel(0.995), "99.5%");
  EXPECT_EQ(AccuracyLabel(0.9995), "99.95%");
  EXPECT_EQ(AccuracyLabel(1.0), "100%");
}

TEST(Harness, ScaleEnvParsing) {
  // Only exercised when the variable is absent: default is 1.0 (the test
  // runner does not set it).
  if (std::getenv("BLINKML_SCALE") == nullptr) {
    EXPECT_DOUBLE_EQ(ScaleFromEnv(), 1.0);
  }
  if (std::getenv("BLINKML_REPEATS") == nullptr) {
    EXPECT_EQ(RepeatsFromEnv(7), 7);
  }
}

TEST(Harness, ParseBenchFlagsRejectsUnknownFlagsWithUsage) {
  // A typo must never silently run the default configuration.
  char prog[] = "bench_x";
  char bogus[] = "--jsno";
  char* argv[] = {prog, bogus};
  EXPECT_EXIT(ParseBenchFlags(2, argv, "BENCH_x.json"),
              ::testing::ExitedWithCode(2), "unknown flag --jsno");

  char bad_value[] = "--threads=banana";
  char* argv2[] = {prog, bad_value};
  EXPECT_EXIT(ParseBenchFlags(2, argv2, "BENCH_x.json"),
              ::testing::ExitedWithCode(2), "positive integer");
}

TEST(Harness, ParseBenchFlagsHandlesRegisteredExtraFlags) {
  int requests = 5;
  const std::vector<ExtraIntFlag> extra = {
      {"requests", "requests per client", &requests}};

  char prog[] = "bench_x";
  char flag[] = "--requests=64";
  char* argv[] = {prog, flag};
  const BenchFlags flags = ParseBenchFlags(2, argv, "BENCH_x.json", extra);
  EXPECT_EQ(requests, 64);
  EXPECT_FALSE(flags.json);

  // Unregistered extras still die, and the usage lists the extra flag.
  char bogus[] = "--requets=64";
  char* argv2[] = {prog, bogus};
  EXPECT_EXIT(ParseBenchFlags(2, argv2, "BENCH_x.json", extra),
              ::testing::ExitedWithCode(2), "--requests=N");
}

TEST(Harness, PercentileUsesNearestRank) {
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
  EXPECT_EQ(Percentile({42.0}, 99.0), 42.0);
  const std::vector<double> values = {5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_EQ(Percentile(values, 50.0), 3.0);
  EXPECT_EQ(Percentile(values, 90.0), 5.0);
  EXPECT_EQ(Percentile(values, 100.0), 5.0);
}

TEST(Harness, ConfigAdaptsStatisticsSampleToDimension) {
  const auto workloads = TinyWorkloads();
  for (const auto& w : workloads) {
    const BlinkConfig config = ConfigFor(w, 1);
    const auto p = w.spec->ParamDim(w.data);
    if (p > 1200) {
      EXPECT_EQ(config.stats_sample_size, 640) << w.name;
    } else {
      EXPECT_EQ(config.stats_sample_size, 1024) << w.name;
    }
    EXPECT_EQ(config.initial_sample_size, w.initial_sample_size);
  }
}

}  // namespace
}  // namespace bench
}  // namespace blinkml
