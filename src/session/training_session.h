// TrainingSession: a multi-model service over one dataset.
//
// The paper's headline application (Section 3.4, Figure 10) trains many
// contract-bound models — hyperparameter candidates — on the same data.
// The artifacts every candidate shares (holdout split, initial sample D_0,
// the statistics phase's feature Grams) depend only on (dataset, seed,
// size knobs), so a session computes them once per seed and serves every
// subsequent training from its memo:
//
//   TrainingSession session(data, config);
//   auto a = session.Train(LogisticRegressionSpec(1e-4), {0.05, 0.05});
//   auto b = session.Train(LogisticRegressionSpec(1e-3), {0.05, 0.05});
//   // b reused a's holdout + D_0; session.stats() shows the amortization.
//
// A run's final sample D_n is not shared: every run gathers its own D_n
// (core/pipeline.h). What a session keeps is the storage: it lends each
// final train storage that an earlier final train left behind, so the
// gather refills memory that is already mapped and faulted in. A session
// retains its prefixes, its Grams and at most one storage per final train
// it ran at the same time, each grown geometrically to the largest sample
// it held (data/dataset.h).
//
// Determinism: a session run is bitwise identical to a standalone
// Coordinator::Train with the same config/seed at any thread count — the
// cached prefix is exactly what the one-shot path would recompute, and
// every pipeline stream is split from the run's own master Rng
// (core/pipeline.h). Train is thread-safe; concurrent drivers live in
// session/hyperparam_search.h.

#ifndef BLINKML_SESSION_TRAINING_SESSION_H_
#define BLINKML_SESSION_TRAINING_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/pipeline.h"
#include "data/dataset.h"
#include "data/feature_gram_cache.h"
#include "data/row_storage.h"
#include "models/model_spec.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace blinkml {

/// Counters of the per-seed prefix memo (holdout + D_0), the session's one
/// store of materialized samples.
struct PrefixMemoStats {
  /// Pipelines handed an already-memoized prefix.
  std::uint64_t hits = 0;
  /// Prefixes computed (one per distinct seed); a view of the session's
  /// obs::Counter.
  std::uint64_t misses = 0;
  /// Always 0: the memo has no budget to bypass. Kept because the
  /// end-to-end benchmark's data.sample_cache_bypass_ratio reads it.
  std::uint64_t bypassed = 0;
  /// Bytes of the memoized holdouts and initial samples.
  std::uint64_t cached_bytes = 0;
};

/// Aggregate accounting of a session's runs (the measurable side of the
/// amortization: `prefix_seconds` is paid once per distinct seed, counted
/// by `cache.misses`, instead of once per run).
struct SessionStats {
  /// Per-phase timings summed over completed runs.
  PhaseTimings run_timings;
  /// Completed pipeline runs.
  int runs = 0;
  /// Total wall-clock spent computing prefixes (amortized across runs);
  /// a view of the session's obs::FloatCounter.
  double prefix_seconds = 0.0;
  /// Prefix-memo counters.
  PrefixMemoStats cache;
  /// Feature-Gram cache counters (the statistics-phase amortization:
  /// one sorted-merge Gram per key, rescales for every later candidate).
  FeatureGramCache::Stats gram_cache;
  /// Capacity bytes of the storage kept for final samples between runs,
  /// and how many storages hold them (runs in flight hold theirs).
  std::uint64_t sample_storage_bytes = 0;
  int sample_storages = 0;
};

class TrainingSession {
 public:
  /// Takes ownership of the dataset; `config` seeds every run that does
  /// not override the seed.
  TrainingSession(Dataset data, BlinkConfig config = {});

  /// Shares an existing dataset without copying it (the service-layer
  /// shape: many sessions over one resident dataset).
  TrainingSession(std::shared_ptr<const Dataset> data,
                  BlinkConfig config = {});

  // Pipelines hold pointers into the session; it is immovable.
  TrainingSession(const TrainingSession&) = delete;
  TrainingSession& operator=(const TrainingSession&) = delete;

  /// One contract-bound training with the session seed. Thread-safe.
  Result<ApproxResult> Train(const ModelSpec& spec,
                             const ApproximationContract& contract);

  /// Same with an explicit master seed (its prefix is cached per seed).
  Result<ApproxResult> Train(const ModelSpec& spec,
                             const ApproximationContract& contract,
                             std::uint64_t seed);

  /// A stage-wise pipeline against the cached prefix, for drivers that
  /// may stop after the initial model (hyperparameter search, when its
  /// max_final_trains budget is spent). The caller runs the stages, then
  /// Finish(), then RecordRun() with the result's timings. The pipeline
  /// must not outlive the session.
  Result<std::unique_ptr<TrainingPipeline>> MakePipeline(
      const ModelSpec& spec, const ApproximationContract& contract,
      std::uint64_t seed);

  /// Folds a completed run's timings into the session totals.
  void RecordRun(const PhaseTimings& timings);

  const Dataset& data() const { return *data_; }
  const BlinkConfig& config() const { return config_; }

  /// Snapshot of the aggregate accounting.
  SessionStats stats() const;

  /// Approximate bytes retained by this session (memoized prefixes +
  /// feature Grams + storage kept for final samples) — what the serving
  /// layer's byte-budget LRU charges a session and frees by evicting it
  /// (serve/session_manager.h). Excludes the dataset itself, which the
  /// manager accounts per registry entry, and the storage runs in flight
  /// have borrowed, which comes back when their final train ends.
  std::uint64_t CacheBytes() const;

 private:
  /// The session config with its seed replaced; stable storage because
  /// pipelines keep a pointer for their lifetime.
  const BlinkConfig& ConfigForSeed(std::uint64_t seed);

  /// The cached prefix for a seed, computing it on first touch
  /// (single-flight: concurrent first requests materialize once).
  Result<std::shared_ptr<const TrainingPrefix>> PrefixFor(std::uint64_t seed);

  const std::shared_ptr<const Dataset> data_;
  const BlinkConfig config_;
  FeatureGramCache gram_cache_;
  /// Storage for final samples, lent to one final train at a time.
  RowStoragePool sample_storage_;

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const BlinkConfig>>
      seed_configs_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const TrainingPrefix>>
      prefixes_;
  /// Bytes of the memoized prefixes' holdouts and initial samples.
  /// Written under mu_; atomic so the lock-free CacheBytes() can read it
  /// (see the .cc note).
  std::atomic<std::uint64_t> prefix_bytes_{0};
  /// Prefix amortization accounting, held as obs metric primitives so the
  /// SessionStats snapshot and the obs registry export agree by
  /// construction (SessionStats::cache.misses / prefix_seconds are views
  /// of these).
  obs::Counter prefixes_computed_;
  obs::FloatCounter prefix_seconds_;
  SessionStats stats_;
};

}  // namespace blinkml

#endif  // BLINKML_SESSION_TRAINING_SESSION_H_
