// TrainingSession / HyperparamSearch: the session's runs must be bitwise
// identical to standalone Coordinator::Train at any thread count, and the
// search must keep deterministic candidate ordering under concurrency.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "data/generators.h"
#include "models/logistic_regression.h"
#include "models/trainer.h"
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

// A session retains its memoized prefixes, its feature Grams and the
// storage its final samples were gathered into, nothing else: CacheBytes()
// (and the serving layer's cached_bytes, which sums it) is exactly those
// three. Every run gathers its own final sample, but into the storage an
// earlier run left behind, so the kept storage grows only when a run's n
// exceeds every earlier one.
TEST(TrainingSession, CacheBytesCountsPrefixGramsAndKeptSampleStorage) {
  const Dataset data = testing::SmallDenseLogistic(20000, 6, 3);
  const BlinkConfig config = FastConfig(11);
  const std::uint64_t prefix_bytes = PrefixBytes(data, config);
  ASSERT_GT(prefix_bytes, 0u);
  // n falls, rises past its first value, then falls twice.
  const std::vector<double> epsilons = {0.03, 0.05, 0.01, 0.02, 0.05};

  TrainingSession session(Dataset(data), config);
  std::vector<std::uint64_t> session_bytes;
  Dataset::Index max_n = 0;
  std::uint64_t previous_kept = 0;
  int smaller_runs = 0;
  for (const double epsilon : epsilons) {
    const auto result =
        session.Train(LogisticRegressionSpec(1e-3), {epsilon, 0.05});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Precondition: the run trained a final model on a sample below N.
    ASSERT_FALSE(result->used_initial_only) << "eps " << epsilon;
    ASSERT_LT(result->sample_size, result->full_size) << "eps " << epsilon;
    const SessionStats stats = session.stats();
    const std::uint64_t bytes = session.CacheBytes();
    EXPECT_EQ(bytes, stats.gram_cache.cached_bytes + prefix_bytes +
                         stats.sample_storage_bytes)
        << "eps " << epsilon;
    // One run at a time: one storage, holding at least this sample.
    EXPECT_EQ(stats.sample_storages, 1) << "eps " << epsilon;
    EXPECT_GE(stats.sample_storage_bytes,
              static_cast<std::uint64_t>(result->sample_size) *
                  static_cast<std::uint64_t>(data.dim() + 1) * sizeof(double))
        << "eps " << epsilon;
    if (result->sample_size <= max_n) {
      ++smaller_runs;
      EXPECT_EQ(stats.sample_storage_bytes, previous_kept)
          << "eps " << epsilon;
    }
    max_n = std::max(max_n, result->sample_size);
    previous_kept = stats.sample_storage_bytes;
    session_bytes.push_back(bytes);
  }
  ASSERT_GE(smaller_runs, 2);

  // One layer up: the same trains through a SessionManager charge the same
  // bytes. The session's Grams stay empty on this small-dimension data.
  SessionManager manager(ServeOptions{});
  ASSERT_TRUE(manager.RegisterDataset("dense", Dataset(data), config).ok());
  for (std::size_t i = 0; i < epsilons.size(); ++i) {
    auto spec = std::make_shared<LogisticRegressionSpec>(1e-3);
    const auto result =
        manager.Train({"dense", std::move(spec), {epsilons[i], 0.05}});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(manager.stats().cached_bytes, session_bytes[i]) << "run " << i;
  }
}

// One session serves trains whose n rises, falls and rises again, each
// gathered into the storage the previous one left. Every run equals a
// standalone Coordinator::Train (fresh storage) bitwise, at any thread
// count, on dense and on sparse (Gram-path statistics) data.
TEST(TrainingSession, KeptSampleStorageServesRisingAndFallingNBitwise) {
  const std::vector<double> epsilons = {0.03, 0.05, 0.03};
  ThreadPool pool(8);
  for (const bool sparse : {false, true}) {
    const Dataset data =
        sparse ? testing::SparseBinaryData(20000, /*dim=*/2000, /*seed=*/13,
                                           /*nnz_per_row=*/30)
               : testing::SmallDenseLogistic(20000, 6, 3);
    BlinkConfig config = FastConfig(11);
    if (sparse) config.stats_sample_size = 256;
    const LogisticRegressionSpec spec(1e-3);

    std::vector<ApproxResult> reference;
    for (const double epsilon : epsilons) {
      BlinkConfig serial = config;
      serial.runtime.num_threads = 1;
      const auto r = Coordinator(serial).Train(spec, data, {epsilon, 0.05});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_FALSE(r->used_initial_only) << "eps " << epsilon;
      reference.push_back(*r);
    }
    // Precondition: n falls, then rises again.
    ASSERT_GT(reference[0].sample_size, reference[1].sample_size);
    ASSERT_LT(reference[1].sample_size, reference[2].sample_size);

    for (const int threads : {1, 2, 8}) {
      BlinkConfig threaded = config;
      threaded.runtime.pool = &pool;
      threaded.runtime.num_threads = threads;
      TrainingSession session(Dataset(data), threaded);
      std::uint64_t kept = 0;
      for (std::size_t i = 0; i < epsilons.size(); ++i) {
        const auto r = session.Train(spec, {epsilons[i], 0.05});
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ExpectBitwiseEqual(*r, reference[i],
                           sparse ? "sparse kept storage"
                                  : "dense kept storage");
        const SessionStats stats = session.stats();
        EXPECT_EQ(stats.sample_storages, 1);
        if (i > 0) {
          // Every later n fits the storage the first run grew.
          EXPECT_EQ(stats.sample_storage_bytes, kept) << "run " << i;
        }
        kept = stats.sample_storage_bytes;
      }
    }
  }
}

// Every memoized seed's prefix is counted in CacheBytes() — the serving
// layer's byte budget charges a session for all of them — whether or not
// the seed's runs trained a final sample.
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
    EXPECT_EQ(session.CacheBytes(), expected + stats.gram_cache.cached_bytes +
                                        stats.sample_storage_bytes)
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
    config.runtime.num_threads = 1;
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

// Two lanes run final trains at the same time, each gathering into
// storage borrowed from the session: the search equals the one-lane search
// bitwise and keeps at most one storage per lane. CI's ThreadSanitizer job
// repeats this test.
TEST(HyperparamSearch, TwoLaneFinalTrainsShareKeptSampleStorage) {
  const Dataset data = MakeSyntheticLogistic(20000, 6, 5);
  std::vector<Candidate> candidates = HyperparamSearch::LogGrid(1e-4, 1e-1, 6);
  // Two contracts' worth of sample sizes: odd candidates run on another
  // seed, so lanes hold samples of different sizes.
  for (std::size_t i = 1; i < candidates.size(); i += 2) {
    candidates[i].seed = 23;
  }

  ThreadPool pool(2);
  std::vector<SearchOutcome> outcomes;
  for (const int lanes : {1, 2}) {
    BlinkConfig config = FastConfig(11);
    config.runtime.pool = &pool;
    config.runtime.num_threads = lanes;
    TrainingSession session(Dataset(data), config);
    SearchOptions options;
    options.contract = kTightContract;
    outcomes.push_back(HyperparamSearch(&session, options)
                           .Run(
                               [](const Candidate& c) {
                                 return std::make_shared<
                                     LogisticRegressionSpec>(c.l2);
                               },
                               candidates));
    const SessionStats& stats = outcomes.back().session_stats;
    EXPECT_GE(stats.sample_storages, 1) << lanes << " lanes";
    EXPECT_LE(stats.sample_storages, lanes) << lanes << " lanes";
    EXPECT_EQ(session.CacheBytes(), stats.cache.cached_bytes +
                                        stats.gram_cache.cached_bytes +
                                        stats.sample_storage_bytes);
  }
  ASSERT_EQ(outcomes[0].candidates.size(), candidates.size());
  ASSERT_EQ(outcomes[1].candidates.size(), candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const CandidateResult& one = outcomes[0].candidates[i];
    const CandidateResult& two = outcomes[1].candidates[i];
    ASSERT_TRUE(one.status.ok()) << one.status.ToString();
    ASSERT_TRUE(two.status.ok()) << two.status.ToString();
    ASSERT_FALSE(one.result.used_initial_only) << "candidate " << i;
    ExpectBitwiseEqual(two.result, one.result, "2 lanes vs 1 lane");
    EXPECT_EQ(std::memcmp(&two.score, &one.score, sizeof(double)), 0)
        << "candidate " << i;
  }
  EXPECT_EQ(outcomes[1].best_index, outcomes[0].best_index);
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

// A logistic spec that holds its search lane where a test needs it to:
// `before_initial` runs before its initial train, and a non-null
// `fail_final` makes it train m_0 normally but run in place of its final
// train, which then fails.
class SequencedSpec final : public LogisticRegressionSpec {
 public:
  SequencedSpec(double l2, std::function<void()> before_initial,
                std::function<void()> fail_final)
      : LogisticRegressionSpec(l2),
        before_initial_(std::move(before_initial)),
        fail_final_(std::move(fail_final)) {}

  Vector InitialTheta(const Dataset& data) const override {
    if (before_initial_) before_initial_();
    return LogisticRegressionSpec::InitialTheta(data);
  }

  bool has_closed_form_trainer() const override {
    return static_cast<bool>(fail_final_);
  }

  Result<Vector> TrainClosedForm(const Dataset& data) const override {
    if (!initial_trained_) {
      initial_trained_ = true;
      BLINKML_ASSIGN_OR_RETURN(
          TrainedModel m0,
          ModelTrainer().Train(LogisticRegressionSpec(l2()), data));
      return m0.theta;
    }
    fail_final_();
    return Status::Internal("final train failed on cue");
  }

 private:
  std::function<void()> before_initial_;
  std::function<void()> fail_final_;
  mutable bool initial_trained_ = false;
};

// With one final-train token on two lanes: A takes it and its final train
// fails; B asks while A holds it and is turned away; C asks after A gave
// it back, and trains its final model. The hooks fix that order. B starts
// once A holds the token, so B's lane goes on to claim C. C lets A fail,
// then waits for A's lane to claim D (which the factory rejects), which
// that lane does only after the refund. CI's ThreadSanitizer job repeats
// this test.
TEST(HyperparamSearch, RefundedFinalTrainTokenReachesALaterCandidate) {
  const Dataset data = MakeSyntheticLogistic(20000, 6, 9);
  ThreadPool pool(2);
  BlinkConfig config = FastConfig(11);
  config.runtime.pool = &pool;
  config.runtime.num_threads = 2;
  TrainingSession session(Dataset(data), config);
  SearchOptions options;
  options.contract = kTightContract;  // every candidate wants a final train
  options.max_final_trains = 1;

  std::vector<Candidate> candidates = HyperparamSearch::LogGrid(1e-4, 1e-1, 3);
  candidates.push_back(candidates.back());
  const char* const labels[] = {"A", "B", "C", "D"};
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    candidates[i].label = labels[i];
  }
  std::promise<void> a_holds_token;
  std::promise<void> a_may_fail;
  std::promise<void> a_lane_moved_on;
  const std::shared_future<void> holds = a_holds_token.get_future().share();
  const std::shared_future<void> may_fail = a_may_fail.get_future().share();
  const std::shared_future<void> moved_on =
      a_lane_moved_on.get_future().share();
  const SearchOutcome outcome = HyperparamSearch(&session, options).Run(
      [&](const Candidate& c) -> std::shared_ptr<ModelSpec> {
        if (c.label == "A") {
          return std::make_shared<SequencedSpec>(c.l2, nullptr, [&] {
            a_holds_token.set_value();
            may_fail.wait();
          });
        }
        if (c.label == "B") {
          return std::make_shared<SequencedSpec>(
              c.l2, [&] { holds.wait(); }, nullptr);
        }
        if (c.label == "C") {
          return std::make_shared<SequencedSpec>(
              c.l2,
              [&] {
                a_may_fail.set_value();
                moved_on.wait();
              },
              nullptr);
        }
        a_lane_moved_on.set_value();
        return nullptr;
      },
      candidates);

  ASSERT_EQ(outcome.candidates.size(), 4u);
  const CandidateResult& a = outcome.candidates[0];
  const CandidateResult& b = outcome.candidates[1];
  const CandidateResult& c = outcome.candidates[2];
  const CandidateResult& d = outcome.candidates[3];
  EXPECT_EQ(a.status.code(), StatusCode::kInternal) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  EXPECT_TRUE(b.final_train_skipped);
  EXPECT_TRUE(b.result.used_initial_only);
  ASSERT_TRUE(c.status.ok()) << c.status.ToString();
  EXPECT_FALSE(c.final_train_skipped) << "the refunded token was lost";
  EXPECT_FALSE(c.result.used_initial_only);
  EXPECT_EQ(d.status.code(), StatusCode::kInvalidArgument);
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
