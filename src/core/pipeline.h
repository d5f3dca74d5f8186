// Composable training pipeline (the stages of Coordinator::Train).
//
// The monolithic BlinkML run decomposes into
//   1. prefix   — holdout split + initial sample D_0 (ComputeTrainingPrefix);
//   2. stages   — initial train -> statistics -> accuracy estimate ->
//                 [size estimate -> final train -> re-estimate] (TrainingPipeline).
// The prefix depends only on (dataset, seed, holdout_size, n_0), so
// multi-model drivers (session/training_session.h) compute it once and
// inject it into many pipelines; a pipeline that receives a cached prefix
// is bitwise identical to one that recomputes it, because the prefix
// consumes exactly the first two streams split off the master Rng and the
// stages consume the rest in the order the monolithic path did.
//
// Stage methods must be called in order; drivers may stop after
// EstimateInitialAccuracy() (a hyperparameter search does when its
// max_final_trains budget is spent) and Finish() packages whatever ran.

#ifndef BLINKML_CORE_PIPELINE_H_
#define BLINKML_CORE_PIPELINE_H_

#include <memory>
#include <vector>

#include "core/accuracy_estimator.h"
#include "core/contract.h"
#include "core/param_sampler.h"
#include "core/sample_size_estimator.h"
#include "core/statistics.h"
#include "data/dataset.h"
#include "data/row_storage.h"
#include "models/model_spec.h"
#include "models/trainer.h"
#include "random/rng.h"
#include "util/status.h"
#include "util/timer.h"

namespace blinkml {

/// Wall-clock breakdown of one approximate-training run (paper Figure 8a).
struct PhaseTimings {
  double initial_train = 0.0;
  double statistics = 0.0;
  double size_estimation = 0.0;
  double final_train = 0.0;
  double accuracy_estimation = 0.0;
  double total = 0.0;

  /// Accumulates another run's phases (session-level aggregation).
  PhaseTimings& operator+=(const PhaseTimings& other);
};

/// Everything a BlinkML training run returns.
struct ApproxResult {
  /// The approximate model (the initial model when it already met the
  /// contract, otherwise the final model).
  TrainedModel model;

  /// Rows the returned model was trained on.
  Dataset::Index sample_size = 0;

  /// Size of the training pool (the "N" of the guarantee).
  Dataset::Index full_size = 0;

  /// The contract that was requested.
  ApproximationContract contract;

  /// Accuracy bound of the initial model (eps_0).
  double initial_epsilon = 0.0;

  /// Accuracy bound of the returned model.
  double final_epsilon = 0.0;

  /// True when the returned model is the initial model m_0 — either
  /// because it already satisfied the contract (paper Section 5.3
  /// observes this regime) or because a driver stopped the pipeline
  /// after m_0 (a search whose max_final_trains budget is spent flags the
  /// candidate's final_train_skipped). `contract_satisfied` distinguishes
  /// the cases.
  bool used_initial_only = false;

  /// True when final_epsilon meets the requested contract epsilon.
  bool contract_satisfied = false;

  /// The Sample Size Estimator's output (sample_size == 0 when the search
  /// was skipped).
  SampleSizeEstimate size_estimate;

  /// The held-out rows (not used for training) on which v was estimated;
  /// shared by reference so that session runs over one dataset never
  /// re-copy it per candidate.
  std::shared_ptr<const Dataset> holdout;

  PhaseTimings timings;

  /// Optimizer iterations of the initial / final training (Figure 8c).
  int initial_iterations = 0;
  int final_iterations = 0;
};

/// The artifacts every run on the same (dataset, seed, holdout_size, n_0)
/// shares: the holdout split and the initial sample D_0. Datasets are held
/// by shared_ptr so sessions hand one materialization to many concurrent
/// pipelines; the session's per-seed memo of this struct is its only
/// store of materialized samples.
struct TrainingPrefix {
  std::shared_ptr<const Dataset> holdout;
  std::shared_ptr<const std::vector<Dataset::Index>> pool_rows;
  Dataset::Index full_n = 0;

  /// D_0 and its size n_0.
  std::shared_ptr<const Dataset> initial_sample;
  Dataset::Index n0 = 0;

  /// Wall-clock cost of computing the prefix (the part a session
  /// amortizes).
  double seconds = 0.0;
};

/// Rows of the holdout a run over `rows` rows takes:
/// max(min(holdout_size, rows / 5), 1).
Dataset::Index HoldoutRows(Dataset::Index rows, const BlinkConfig& config);

/// Refuses, as InvalidArgument, a config that no run over `rows` rows can
/// complete: fewer than 10 rows, n_0 below 1, a holdout (HoldoutRows)
/// below 2 rows (regression scales v by the holdout labels' spread), or
/// fewer than 1 accuracy or size draw.
Status ValidateTrainingConfig(Dataset::Index rows, const BlinkConfig& config);

/// Computes the holdout split and D_0, consuming the first two streams of
/// the master Rng exactly as the monolithic path did. Fails with
/// InvalidArgument for configs ValidateTrainingConfig refuses.
Result<TrainingPrefix> ComputeTrainingPrefix(const Dataset& data,
                                             const BlinkConfig& config);

/// One contract-bound training, decomposed. Holds pointers into the
/// caller's dataset/config/prefix; all must outlive the pipeline.
class TrainingPipeline {
 public:
  /// Positions the master Rng after the prefix's two Split() calls.
  /// `gram_cache` (optional, session-owned) shares the statistics phase's
  /// feature Gram across candidates; the statistics stages key it by
  /// (phase, seed, sample rows), which determine the stats sub-sample
  /// deterministically. `sample_storage` (optional, session-owned) lends
  /// TrainFinal the storage its final sample is gathered into; without
  /// it, the sample goes into fresh storage.
  TrainingPipeline(const ModelSpec& spec, const Dataset& data,
                   const ApproximationContract& contract,
                   const BlinkConfig& config,
                   std::shared_ptr<const TrainingPrefix> prefix,
                   FeatureGramCache* gram_cache = nullptr,
                   RowStoragePool* sample_storage = nullptr);

  // --- Stages (call in order). ---

  /// Trains m_0 on D_0.
  Status TrainInitial();

  /// Builds the parameter sampler at m_0 (H^-1 J H^-1 statistics).
  Status ComputeInitialStatistics();

  /// Estimates eps_0, the accuracy bound of m_0.
  Status EstimateInitialAccuracy();

  /// True once EstimateInitialAccuracy() ran and eps_0 <= contract epsilon
  /// (the run may stop here and return m_0).
  bool initial_meets_contract() const;

  /// Runs the Sample Size Estimator for the minimum n.
  Status EstimateMinimumSampleSize();

  /// Trains m_n on a size-n sample (warm-started from m_0) and, when n is
  /// below the pool size, re-estimates its bound at theta_n. The sample
  /// is gathered into storage borrowed from `sample_storage` (or fresh
  /// storage) and lives for this call only; the storage goes back when
  /// the call returns, on every path, after the re-estimate's sampler
  /// (which can alias a CSR sample) is gone.
  Status TrainFinal();

  /// Packages the result from whichever stages ran. The model is m_n when
  /// TrainFinal() ran, otherwise m_0. Call at most once.
  ApproxResult Finish();

  /// All stages in the monolithic order: equivalent to the original
  /// Coordinator::Train body after the prefix.
  Result<ApproxResult> RunAll();

 private:
  const ModelSpec* spec_;
  const Dataset* data_;
  ApproximationContract contract_;
  const BlinkConfig* config_;
  std::shared_ptr<const TrainingPrefix> prefix_;
  FeatureGramCache* gram_cache_;
  RowStoragePool* sample_storage_;

  Rng rng_;
  WallTimer total_timer_;
  int next_stage_ = 0;
  bool accuracy_estimated_ = false;
  bool final_trained_ = false;

  TrainedModel m0_;
  ParamSampler sampler_ = ParamSampler::FromDenseFactor(Matrix());
  TrainedModel mn_;
  Dataset::Index final_n_ = 0;
  ApproxResult out_;
};

}  // namespace blinkml

#endif  // BLINKML_CORE_PIPELINE_H_
