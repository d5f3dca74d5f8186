// TrainingSession / HyperparamSearch: the session's runs must be bitwise
// identical to standalone Coordinator::Train at any thread count, and the
// search must keep deterministic candidate ordering under concurrency.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "data/generators.h"
#include "models/logistic_regression.h"
#include "models/ppca.h"
#include "runtime/thread_pool.h"
#include "serve/session_manager.h"
#include "session/hyperparam_search.h"
#include "session/training_session.h"
#include "tests/test_util.h"

namespace blinkml {
namespace {

using testing::ExpectBitwiseEqual;
using testing::FastConfig;
using testing::kTightContract;

TEST(TrainingSession, MatchesStandaloneCoordinatorBitwise) {
  const Dataset data = testing::SmallDenseLogistic(20000, 6, 3);
  const std::vector<double> l2s = {1e-4, 1e-3, 1e-2};

  TrainingSession session(Dataset(data), FastConfig(11));
  const Coordinator coordinator(FastConfig(11));
  for (const double l2 : l2s) {
    LogisticRegressionSpec spec(l2);
    const auto via_session = session.Train(spec, kTightContract);
    const auto standalone = coordinator.Train(spec, data, kTightContract);
    ASSERT_TRUE(via_session.ok());
    ASSERT_TRUE(standalone.ok());
    ExpectBitwiseEqual(*via_session, *standalone, "session vs standalone");
  }

  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.runs, static_cast<int>(l2s.size()));
  // One prefix served every run: the amortization the session exists for.
  // The first run computed it; every later run was handed the memo.
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.hits, l2s.size() - 1);
  EXPECT_EQ(stats.cache.bypassed, 0u);
  EXPECT_GT(stats.cache.cached_bytes, 0u);
  EXPECT_GT(stats.prefix_seconds, 0.0);
  EXPECT_GT(stats.run_timings.total, 0.0);
}

// Sparse workload through the ObservedFisher Gram path: the session's
// shared feature Gram (logistic regression rescales it) and the
// per-candidate merge path (the same model without gradient coefficients)
// must BOTH be bitwise identical to a standalone Coordinator — the cache
// only removes a recomputation, and the rescale algebra is applied
// identically with or without a session.
TEST(TrainingSession, SparseStatisticsMatchStandaloneWithGramReuseOnAndOff) {
  const Dataset data = testing::SparseBinaryData(20000, /*dim=*/400,
                                                 /*seed=*/13,
                                                 /*nnz_per_row=*/12);
  for (const bool reuse : {true, false}) {
    BlinkConfig config = FastConfig(11);
    config.stats_sample_size = 256;  // below dim: sparse Gram path engaged
    TrainingSession session(Dataset(data), config);
    const Coordinator coordinator(config);
    for (const double l2 : {1e-3, 1e-2}) {
      const std::unique_ptr<ModelSpec> spec =
          reuse ? std::make_unique<LogisticRegressionSpec>(l2)
                : std::make_unique<testing::MergePathLogistic>(l2);
      const auto via_session = session.Train(*spec, kTightContract);
      const auto standalone = coordinator.Train(*spec, data, kTightContract);
      ASSERT_TRUE(via_session.ok()) << via_session.status().ToString();
      ASSERT_TRUE(standalone.ok()) << standalone.status().ToString();
      ExpectBitwiseEqual(*via_session, *standalone,
                         reuse ? "gram reuse on" : "gram reuse off");
    }
    const SessionStats stats = session.stats();
    if (reuse) {
      // The second candidate's initial statistics hit the cached Gram.
      EXPECT_GE(stats.gram_cache.hits, 1u);
      EXPECT_GE(stats.gram_cache.misses, 1u);
    } else {
      // The merge path never touches the Gram cache.
      EXPECT_EQ(stats.gram_cache.hits + stats.gram_cache.misses, 0u);
    }
  }
}

// Bytes of the holdout and D_0 that a session memoizes for `config.seed`.
std::uint64_t PrefixBytes(const Dataset& data, const BlinkConfig& config) {
  const auto prefix = ComputeTrainingPrefix(data, config);
  EXPECT_TRUE(prefix.ok()) << prefix.status().ToString();
  if (!prefix.ok()) return 0;
  return prefix->holdout->MemoryBytes() +
         prefix->initial_sample->MemoryBytes();
}

// A session retains its memoized prefixes and feature Grams, nothing else:
// each run's final sample is freed with the run, so training more models
// on one seed leaves CacheBytes() (and the serving layer's cached_bytes,
// which sums it) where the first run left it.
TEST(TrainingSession, NoFinalSampleOutlivesItsRun) {
  const Dataset data = testing::SmallDenseLogistic(20000, 6, 3);
  const BlinkConfig config = FastConfig(11);
  const std::uint64_t prefix_bytes = PrefixBytes(data, config);
  ASSERT_GT(prefix_bytes, 0u);
  const std::vector<double> l2s = {1e-4, 3e-4, 1e-3, 3e-3};

  TrainingSession session(Dataset(data), config);
  std::uint64_t previous = 0;
  for (const double l2 : l2s) {
    const auto result =
        session.Train(LogisticRegressionSpec(l2), kTightContract);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Precondition: the run trained a final model on a sample below N.
    ASSERT_FALSE(result->used_initial_only) << "l2 " << l2;
    ASSERT_LT(result->sample_size, result->full_size) << "l2 " << l2;
    const std::uint64_t bytes = session.CacheBytes();
    EXPECT_EQ(bytes, session.stats().gram_cache.cached_bytes + prefix_bytes)
        << "l2 " << l2;
    if (previous > 0) {
      EXPECT_LE(bytes, previous) << "l2 " << l2;
    }
    previous = bytes;
  }

  // One layer up: the same trains through a SessionManager.
  SessionManager manager(ServeOptions{});
  ASSERT_TRUE(manager.RegisterDataset("dense", Dataset(data), config).ok());
  previous = 0;
  for (const double l2 : l2s) {
    auto spec = std::make_shared<LogisticRegressionSpec>(l2);
    const auto result =
        manager.SubmitTrain({"dense", std::move(spec), kTightContract}).get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_FALSE(result->used_initial_only) << "l2 " << l2;
    ASSERT_LT(result->sample_size, result->full_size) << "l2 " << l2;
    const std::uint64_t bytes = manager.stats().cached_bytes;
    // The session's Grams stay empty on this small-dimension data, so its
    // retained bytes are exactly the prefix.
    EXPECT_EQ(bytes, prefix_bytes) << "l2 " << l2;
    if (previous > 0) {
      EXPECT_LE(bytes, previous) << "l2 " << l2;
    }
    previous = bytes;
  }
}

// Every memoized seed's prefix is counted in CacheBytes() — the serving
// layer's byte budget charges a session for all of them — whether or not
// the seed's runs trained (and freed) a final sample.
TEST(TrainingSession, CacheBytesCountsEveryMemoizedPrefix) {
  const Dataset data = testing::SmallDenseLogistic(2000, 6, 3);
  TrainingSession session(Dataset(data), FastConfig(11));
  const LogisticRegressionSpec spec(1e-3);
  std::uint64_t expected = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const ApproximationContract& contract =
        seed % 2 == 1 ? kTightContract : testing::kLooseContract;
    const auto result = session.Train(spec, contract, seed);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected += PrefixBytes(data, FastConfig(seed));
    const SessionStats stats = session.stats();
    EXPECT_EQ(stats.cache.misses, seed) << "seed " << seed;
    EXPECT_EQ(stats.cache.cached_bytes, expected) << "seed " << seed;
    EXPECT_EQ(session.CacheBytes(), expected + stats.gram_cache.cached_bytes)
        << "seed " << seed;
  }
}

// A contract of epsilon = 0 sends the run to the whole pool (n = N), whose
// materialization lives for the run only; repeated runs on one seed still
// equal the standalone path bitwise.
TEST(TrainingSession, FullPoolRunMatchesStandalone) {
  const Dataset data = testing::SmallDenseLogistic(3000, 6, 3);
  const ApproximationContract exact{0.0, 0.05};
  TrainingSession session(Dataset(data), FastConfig(11));
  const LogisticRegressionSpec spec(1e-3);
  const auto standalone = Coordinator(FastConfig(11)).Train(spec, data, exact);
  ASSERT_TRUE(standalone.ok()) << standalone.status().ToString();
  for (int run = 0; run < 2; ++run) {
    const auto via_session = session.Train(spec, exact);
    ASSERT_TRUE(via_session.ok()) << via_session.status().ToString();
    EXPECT_EQ(via_session->sample_size, via_session->full_size);
    ExpectBitwiseEqual(*via_session, *standalone, "full-pool run");
  }
}

TEST(TrainingSession, PerRunSeedsGetTheirOwnPrefix) {
  const Dataset data = MakeSyntheticLogistic(20000, 5, 7);
  TrainingSession session(Dataset(data), FastConfig(11));
  LogisticRegressionSpec spec(1e-3);

  const auto a = session.Train(spec, kTightContract, 11);
  const auto b = session.Train(spec, kTightContract, 99);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(session.stats().cache.misses, 2u);

  // Each seed matches its standalone run.
  const auto sa = Coordinator(FastConfig(11)).Train(spec, data, kTightContract);
  const auto sb = Coordinator(FastConfig(99)).Train(spec, data, kTightContract);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  ExpectBitwiseEqual(*a, *sa, "seed 11");
  ExpectBitwiseEqual(*b, *sb, "seed 99");
}

TEST(HyperparamSearch, ConcurrentSearchMatchesStandaloneAtAnyThreadCount) {
  const Dataset data = MakeSyntheticLogistic(20000, 6, 5);
  const std::vector<Candidate> candidates =
      HyperparamSearch::LogGrid(1e-4, 1e-1, 4);

  // Standalone reference, fully serial.
  std::vector<ApproxResult> reference;
  for (const Candidate& c : candidates) {
    BlinkConfig config = FastConfig(11);
    config.runtime.enabled = false;
    LogisticRegressionSpec spec(c.l2);
    const auto r = Coordinator(config).Train(spec, data, kTightContract);
    ASSERT_TRUE(r.ok());
    reference.push_back(*r);
  }

  ThreadPool pool(4);
  for (const int threads : {1, 2, 4}) {
    BlinkConfig config = FastConfig(11);
    config.runtime.pool = &pool;
    config.runtime.num_threads = threads;
    TrainingSession session(Dataset(data), config);
    SearchOptions options;
    options.contract = kTightContract;
    HyperparamSearch search(&session, options);
    const SearchOutcome outcome = search.Run(
        [](const Candidate& c) {
          return std::make_shared<LogisticRegressionSpec>(c.l2);
        },
        candidates);

    ASSERT_EQ(outcome.candidates.size(), candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const CandidateResult& cr = outcome.candidates[i];
      ASSERT_TRUE(cr.status.ok()) << cr.status.ToString();
      EXPECT_FALSE(cr.skipped);
      EXPECT_FALSE(cr.pruned);
      // Deterministic ordering: slot i holds candidate i.
      EXPECT_EQ(cr.candidate.l2, candidates[i].l2);
      ExpectBitwiseEqual(cr.result, reference[i], "search vs standalone");
    }
    EXPECT_GE(outcome.best_index, 0);
    // Scores are deterministic, so the winner is too.
    const double best_score =
        outcome.candidates[static_cast<std::size_t>(outcome.best_index)]
            .score;
    for (const CandidateResult& cr : outcome.candidates) {
      EXPECT_LE(cr.score, best_score);
    }
    // The k candidates shared one prefix computation.
    EXPECT_EQ(outcome.session_stats.cache.misses, 1u);
    EXPECT_EQ(outcome.session_stats.runs,
              static_cast<int>(candidates.size()));
  }
}

TEST(HyperparamSearch, FinalTrainTokenBudgetIsHonoredAndFlagged) {
  const Dataset data = MakeSyntheticLogistic(20000, 6, 9);
  TrainingSession session(Dataset(data), FastConfig(11));
  SearchOptions options;
  options.contract = kTightContract;  // every candidate wants a final train
  options.max_final_trains = 1;
  HyperparamSearch search(&session, options);
  const SearchOutcome outcome = search.Run(
      [](const Candidate& c) {
        return std::make_shared<LogisticRegressionSpec>(c.l2);
      },
      HyperparamSearch::LogGrid(1e-4, 1e-1, 3));

  int finals = 0;
  for (const CandidateResult& cr : outcome.candidates) {
    ASSERT_TRUE(cr.status.ok());
    if (!cr.result.used_initial_only) ++finals;
    if (cr.final_train_skipped) {
      // Clipped, not satisfied: the m_0 bound exceeded the contract.
      EXPECT_TRUE(cr.result.used_initial_only);
      EXPECT_FALSE(cr.result.contract_satisfied);
    }
  }
  EXPECT_EQ(finals, 1);
  EXPECT_EQ(static_cast<int>(outcome.candidates.size()) - finals, 2);
}

TEST(HyperparamSearch, DominatedCandidateIsPrunedAfterInitialModel) {
  // PPCA rank selection: the candidate knob is the factor rank. On
  // true-rank-2 data the rank-1 model's log-likelihood is far worse than
  // the rank-2 model's while its eps_0 stays small, so its optimistic
  // bound (score(m_0) + eps_0) cannot beat the completed rank-2 candidate.
  const Dataset labeled = MakeSyntheticLowRank(20000, 8, 2, 13, 0.4);
  const Dataset data(Matrix(labeled.dense()), Vector(), Task::kUnsupervised);
  BlinkConfig config = FastConfig(11);
  // Serial execution => candidates complete in order, so the dominance
  // check against "best completed so far" is deterministic.
  config.runtime.enabled = false;
  TrainingSession session(Dataset(data), config);
  SearchOptions options;
  // Tight enough that no initial model satisfies the contract outright
  // (a contract-satisfying m_0 returns before the dominance check).
  options.contract = {1e-6, 0.05};
  options.prune_dominated = true;
  HyperparamSearch search(&session, options);

  std::vector<Candidate> candidates(2);
  candidates[0].l2 = 2;  // interpreted as rank by the factory
  candidates[1].l2 = 1;
  const SearchOutcome outcome = search.Run(
      [](const Candidate& c) {
        return std::make_shared<PpcaSpec>(
            static_cast<Vector::Index>(c.l2));
      },
      candidates);

  ASSERT_TRUE(outcome.candidates[0].status.ok())
      << outcome.candidates[0].status.ToString();
  ASSERT_TRUE(outcome.candidates[1].status.ok())
      << outcome.candidates[1].status.ToString();
  EXPECT_FALSE(outcome.candidates[0].pruned);
  EXPECT_TRUE(outcome.candidates[1].pruned);
  EXPECT_TRUE(outcome.candidates[1].result.used_initial_only);
  EXPECT_EQ(outcome.best_index, 0);
}

TEST(HyperparamSearch, ExhaustedTimeBudgetSkipsAndFlagsCandidates) {
  const Dataset data = MakeSyntheticLogistic(5000, 4, 9);
  TrainingSession session(Dataset(data), FastConfig(11));
  SearchOptions options;
  options.contract = kTightContract;
  options.time_budget_seconds = 1e-9;  // expires before any candidate starts
  HyperparamSearch search(&session, options);
  const SearchOutcome outcome = search.Run(
      [](const Candidate& c) {
        return std::make_shared<LogisticRegressionSpec>(c.l2);
      },
      HyperparamSearch::LogGrid(1e-4, 1e-1, 3));

  ASSERT_EQ(outcome.candidates.size(), 3u);
  for (const CandidateResult& cr : outcome.candidates) {
    EXPECT_TRUE(cr.skipped);
    EXPECT_TRUE(cr.status.ok());
  }
  EXPECT_EQ(outcome.best_index, -1);
  EXPECT_EQ(outcome.session_stats.runs, 0);
}

// The scores a search reports, recomputed one candidate at a time with
// ModelSpec::GeneralizationError on the candidate's holdout.
std::vector<double> PerCandidateScores(const SearchOutcome& outcome,
                                       const std::vector<Candidate>& candidates,
                                       const SpecFactory& factory) {
  std::vector<double> scores;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const ApproxResult& result = outcome.candidates[i].result;
    scores.push_back(1.0 - factory(candidates[i])->GeneralizationError(
                               result.model.theta, *result.holdout));
  }
  return scores;
}

// Batched candidate scoring must be a pure execution-strategy change: the
// scores (and hence the winner) are bitwise identical to per-candidate
// holdout passes, and the batch path actually engages (one prediction
// matrix for the whole same-seed group).
TEST(HyperparamSearch, BatchedScoringMatchesPerCandidateScoresBitwise) {
  const Dataset data = testing::SmallDenseLogistic(20000, 6, 5);
  const std::vector<Candidate> candidates =
      HyperparamSearch::LogGrid(1e-4, 1e-1, 5);
  const SpecFactory factory = [](const Candidate& c) {
    return std::make_shared<LogisticRegressionSpec>(c.l2);
  };

  TrainingSession session(Dataset(data), FastConfig(11));
  SearchOptions options;
  options.contract = kTightContract;
  const SearchOutcome batched =
      HyperparamSearch(&session, options).Run(factory, candidates);

  // All candidates share the session seed => one holdout => one matrix.
  EXPECT_EQ(batched.batched_score_groups, 1);
  ASSERT_EQ(batched.candidates.size(), candidates.size());
  for (const CandidateResult& c : batched.candidates) {
    ASSERT_TRUE(c.status.ok());
  }
  const std::vector<double> expected =
      PerCandidateScores(batched, candidates, factory);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(batched.candidates[i].score, expected[i]) << "candidate " << i;
  }
  EXPECT_EQ(batched.best_index,
            std::max_element(expected.begin(), expected.end()) -
                expected.begin());
}

// Mixed spec types in one search: the batch-scoring grouping must split
// on the exact dynamic type (a subclass sharing the base name() never
// rides on the base group's prediction matrix), a candidate alone on its
// holdout is scored without a matrix, and every score is bitwise equal to
// the per-candidate path.
TEST(HyperparamSearch, BatchedScoringSplitsMixedSpecTypes) {
  const Dataset data = testing::SmallDenseLogistic(20000, 6, 5);
  std::vector<Candidate> candidates = HyperparamSearch::LogGrid(1e-4, 1e-2, 7);
  // Deterministic type assignment by index, carried through the label:
  // base {0, 2, 4, 6} and the merge-path subclass {1, 3, 5}; candidate 3
  // runs on its own seed, so its holdout makes a one-member group.
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    candidates[i].label = std::to_string(i);
  }
  candidates[3].seed = 12;
  const SpecFactory typed_factory =
      [](const Candidate& c) -> std::shared_ptr<ModelSpec> {
    if (std::stoi(c.label) % 2 == 1) {
      return std::make_shared<testing::MergePathLogistic>(c.l2);
    }
    return std::make_shared<LogisticRegressionSpec>(c.l2);
  };

  TrainingSession session(Dataset(data), FastConfig(11));
  SearchOptions options;
  options.contract = kTightContract;
  const SearchOutcome outcome =
      HyperparamSearch(&session, options).Run(typed_factory, candidates);

  // Matrices built: {base x4} and {merge-path x2}; the typeid split keeps
  // the subclass off its base's matrix even though name() matches.
  EXPECT_EQ(outcome.batched_score_groups, 2);
  for (const CandidateResult& c : outcome.candidates) {
    ASSERT_TRUE(c.status.ok());
  }
  const std::vector<double> expected =
      PerCandidateScores(outcome, candidates, typed_factory);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(outcome.candidates[i].score, expected[i]) << "candidate " << i;
  }
  EXPECT_EQ(outcome.best_index,
            std::max_element(expected.begin(), expected.end()) -
                expected.begin());
}

TEST(HyperparamSearch, GridAndRandomCandidateGenerators) {
  const auto grid = HyperparamSearch::LogGrid(1e-4, 1e-1, 4);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_DOUBLE_EQ(grid.front().l2, 1e-4);
  EXPECT_NEAR(grid.back().l2, 1e-1, 1e-12);
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_GT(grid[i].l2, grid[i - 1].l2);
  }

  const auto random = HyperparamSearch::LogRandom(1e-4, 1e-1, 16, 123);
  ASSERT_EQ(random.size(), 16u);
  for (const Candidate& c : random) {
    EXPECT_GE(c.l2, 1e-4);
    EXPECT_LE(c.l2, 1e-1);
  }
  // Same seed, same draws.
  const auto random2 = HyperparamSearch::LogRandom(1e-4, 1e-1, 16, 123);
  for (std::size_t i = 0; i < random.size(); ++i) {
    EXPECT_EQ(random[i].l2, random2[i].l2);
  }

  EXPECT_TRUE(HyperparamSearch::LogGrid(1e-1, 1e-4, 4).empty());
  EXPECT_TRUE(HyperparamSearch::LogRandom(0.0, 1e-1, 4, 1).empty());
}

}  // namespace
}  // namespace blinkml
