// Self-checks for the bench/ harness library: the shared flag parser, the
// environment knobs, the JSON machine block, and the exact binomial
// arithmetic that the guarantee record (bench_guarantee) and
// coordinator_test judge violation counts by, checked against a
// brute-force convolution of the binomial distribution.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.h"

namespace blinkml {
namespace bench {
namespace {

// Bin(trials, p)'s probabilities, built one Bernoulli trial at a time.
std::vector<double> BinomialByConvolution(int trials, double p) {
  std::vector<double> dist = {1.0};
  for (int t = 0; t < trials; ++t) {
    std::vector<double> next(dist.size() + 1, 0.0);
    for (std::size_t i = 0; i < dist.size(); ++i) {
      next[i] += dist[i] * (1.0 - p);
      next[i + 1] += dist[i] * p;
    }
    dist = std::move(next);
  }
  return dist;
}

double TailByConvolution(int trials, double p, int k) {
  const std::vector<double> dist = BinomialByConvolution(trials, p);
  double tail = 0.0;
  for (int i = std::max(k, 0); i <= trials; ++i) tail += dist[i];
  return tail;
}

TEST(Harness, BinomialUpperTailMatchesConvolution) {
  for (const int trials : {1, 7, 40, 200}) {
    for (const double p : {0.01, 0.05, 0.1, 0.3}) {
      for (int k = 0; k <= trials + 1; ++k) {
        const double brute = TailByConvolution(trials, p, k);
        EXPECT_NEAR(BinomialUpperTail(trials, p, k), brute,
                    1e-12 + 1e-9 * brute)
            << "T=" << trials << " p=" << p << " k=" << k;
      }
    }
  }
  EXPECT_EQ(BinomialUpperTail(40, 0.0, 1), 0.0);
  EXPECT_EQ(BinomialUpperTail(40, 1.0, 40), 1.0);
}

TEST(Harness, BinomialUpperQuantileIsTheSmallestAllowedCount) {
  // The counts the guarantee tests quote.
  EXPECT_EQ(BinomialUpperQuantile(40, 0.05, 1e-3), 7);
  EXPECT_EQ(BinomialUpperQuantile(100, 0.05, 1e-3), 13);
  EXPECT_EQ(BinomialUpperQuantile(200, 0.05, 1e-3), 21);
  for (const int trials : {2, 20, 40, 100, 200}) {
    for (const double p : {0.05, 0.1}) {
      const int k = BinomialUpperQuantile(trials, p, 1e-3);
      EXPECT_LE(TailByConvolution(trials, p, k + 1), 1e-3)
          << "T=" << trials << " p=" << p;
      if (k > 0) {
        EXPECT_GT(TailByConvolution(trials, p, k), 1e-3)
            << "T=" << trials << " p=" << p;
      }
    }
  }
}

TEST(Harness, ClopperPearsonUpperSolvesTheLowerTail) {
  for (const int trials : {20, 40, 200}) {
    for (const int violations : {0, 1, 5, trials / 2, trials - 1}) {
      const double upper = ClopperPearsonUpper(violations, trials, 0.05);
      EXPECT_GT(upper, static_cast<double>(violations) / trials);
      EXPECT_NEAR(1.0 - TailByConvolution(trials, upper, violations + 1),
                  0.05, 1e-9)
          << violations << " of " << trials;
    }
    EXPECT_EQ(ClopperPearsonUpper(trials, trials, 0.05), 1.0);
  }
  // No violations: (1 - p)^T = alpha in closed form.
  EXPECT_NEAR(ClopperPearsonUpper(0, 40, 0.05),
              1.0 - std::pow(0.05, 1.0 / 40.0), 1e-12);
}

TEST(Harness, MachineBlockNamesTheHostAndTheLanesUsed) {
  const std::string json = MachineJson(3).ToCompact();
  for (const char* key :
       {"\"cpu\"", "\"hardware_threads\"", "\"kernel_isa\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  EXPECT_NE(json.find("\"threads_used\": 3"), std::string::npos) << json;
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

}  // namespace
}  // namespace bench
}  // namespace blinkml
