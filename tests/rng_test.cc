#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "random/rng.h"
#include "tests/reference/reference.h"
#include "tests/test_util.h"
#include "util/stats.h"

namespace blinkml {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, ZeroSeedWorks) {
  Rng r(0);
  EXPECT_NE(r.Next(), 0u);  // SplitMix64 avoids the all-zero state
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMomentsRoughlyCorrect) {
  Rng r(6);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = r.Uniform();
  EXPECT_NEAR(Mean(xs), 0.5, 0.01);
  EXPECT_NEAR(Variance(xs), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.Uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
  EXPECT_THROW(r.Uniform(3.0, -2.0), CheckError);
}

TEST(Rng, UniformIntCoversRangeWithoutBias) {
  Rng r(8);
  std::vector<int> counts(5, 0);
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) ++counts[r.UniformInt(5)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.2, 0.01);
  }
  EXPECT_THROW(r.UniformInt(0), CheckError);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng r(9);
  std::vector<double> xs(40000);
  for (auto& x : xs) x = r.Normal();
  EXPECT_NEAR(Mean(xs), 0.0, 0.02);
  EXPECT_NEAR(Variance(xs), 1.0, 0.03);
  // Roughly 68% within one sigma.
  int within = 0;
  for (double x : xs) {
    if (std::fabs(x) <= 1.0) ++within;
  }
  EXPECT_NEAR(static_cast<double>(within) / xs.size(), 0.6827, 0.01);
}

TEST(Rng, NormalWithParamsScalesAndShifts) {
  Rng r(10);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = r.Normal(3.0, 2.0);
  EXPECT_NEAR(Mean(xs), 3.0, 0.05);
  EXPECT_NEAR(StdDev(xs), 2.0, 0.05);
  EXPECT_THROW(r.Normal(0.0, -1.0), CheckError);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(11);
  int ones = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) ones += r.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / trials, 0.3, 0.01);
  EXPECT_THROW(r.Bernoulli(1.5), CheckError);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng r(12);
  const std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) ++counts[r.Categorical(w)];
  EXPECT_NEAR(counts[0] / static_cast<double>(trials), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(trials), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(trials), 0.6, 0.01);
  EXPECT_THROW(r.Categorical({}), CheckError);
  EXPECT_THROW(r.Categorical({0.0, 0.0}), CheckError);
}

TEST(Rng, PoissonMeanMatches) {
  Rng r(13);
  for (const double lambda : {0.5, 4.0, 100.0}) {
    std::vector<double> xs(20000);
    for (auto& x : xs) x = static_cast<double>(r.Poisson(lambda));
    EXPECT_NEAR(Mean(xs), lambda, lambda * 0.05 + 0.05) << lambda;
  }
  EXPECT_EQ(r.Poisson(0.0), 0);
}

TEST(Rng, SplitStreamsAreDecorrelated) {
  Rng a(99);
  Rng b = a.Split();
  std::vector<double> xs(5000), ys(5000);
  for (int i = 0; i < 5000; ++i) {
    xs[static_cast<std::size_t>(i)] = a.Uniform();
    ys[static_cast<std::size_t>(i)] = b.Uniform();
  }
  // Sample correlation near zero.
  const double mx = Mean(xs), my = Mean(ys);
  double cov = 0.0;
  for (int i = 0; i < 5000; ++i) {
    cov += (xs[static_cast<std::size_t>(i)] - mx) *
           (ys[static_cast<std::size_t>(i)] - my);
  }
  cov /= 5000.0;
  EXPECT_LT(std::fabs(cov / (StdDev(xs) * StdDev(ys))), 0.05);
}

TEST(RandomPermutation, IsAPermutation) {
  Rng r(14);
  const auto perm = RandomPermutation(100, &r);
  std::set<std::int64_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 99);
}

TEST(RandomPermutation, UniformFirstElement) {
  Rng r(15);
  std::vector<int> counts(4, 0);
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) ++counts[RandomPermutation(4, &r)[0]];
  for (int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(trials), 0.25, 0.01);
  }
}

class SampleWithoutReplacementCases
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SampleWithoutReplacementCases, DistinctInRangeCorrectCount) {
  const auto [n, k] = GetParam();
  Rng r(16);
  for (int trial = 0; trial < 20; ++trial) {
    const auto sample = SampleWithoutReplacement(n, k, &r);
    EXPECT_EQ(sample.size(), static_cast<std::size_t>(k));
    std::set<std::int64_t> seen(sample.begin(), sample.end());
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(k)) << "duplicates";
    for (auto v : sample) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SampleWithoutReplacementCases,
    ::testing::Values(std::make_pair(10, 0), std::make_pair(10, 10),
                      std::make_pair(10, 3), std::make_pair(1000, 5),
                      std::make_pair(1000, 999), std::make_pair(5, 1)));

TEST(SampleWithoutReplacement, MarginalInclusionIsUniform) {
  // Every element should appear with probability k/n.
  Rng r(17);
  const int n = 20, k = 5, trials = 30000;
  std::vector<int> counts(n, 0);
  for (int t = 0; t < trials; ++t) {
    for (auto v : SampleWithoutReplacement(n, k, &r)) ++counts[v];
  }
  for (int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(trials),
                static_cast<double>(k) / n, 0.012);
  }
}

// Floyd's chosen set lives in a flat open-addressing table; the sampler
// must consume the same draws and return the same vector as the hash-set
// oracle, on both sides of the dense-branch boundary (3k < n).
TEST(SampleWithoutReplacement, MatchesHashSetOracle) {
  const std::vector<std::pair<std::int64_t, std::int64_t>> cases = {
      {1, 1},
      {100, 1},
      {100, 33},  // the largest k that takes the Floyd branch at n = 100
      {198000, 42000},
      {198000, 65999},  // the largest Floyd k at n = 198,000 (3k < n)
      {20000, 39},      // the sparse generator's per-row column draw
      {1000000, 1000}};
  for (const auto& [n, k] : cases) {
    for (const std::uint64_t seed : {3u, 4u}) {
      Rng a(seed), b(seed);
      const auto got = SampleWithoutReplacement(n, k, &a);
      const auto want = reference::SampleWithoutReplacement(n, k, &b);
      EXPECT_EQ(got, want) << "n=" << n << " k=" << k;
      EXPECT_EQ(a.Next(), b.Next()) << "n=" << n << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace blinkml
