// User-facing approximation contract and system configuration.

#ifndef BLINKML_CORE_CONTRACT_H_
#define BLINKML_CORE_CONTRACT_H_

#include <cstdint>

#include "data/dataset.h"
#include "models/trainer.h"
#include "runtime/runtime_options.h"
#include "util/status.h"

namespace blinkml {

/// The error-computation trade-off requested by the user (paper Section
/// 2.1): with probability at least 1 - delta, the approximate model's
/// prediction difference v from the full model is at most epsilon.
struct ApproximationContract {
  double epsilon = 0.05;
  double delta = 0.05;
};

/// Validates a contract (epsilon >= 0, delta in (0, 1)).
Status ValidateContract(const ApproximationContract& contract);

/// How the statistics (H, J of paper Theorem 1) are computed; paper
/// Section 3.4. ObservedFisher is the default, as in the paper.
enum class StatsMethod { kClosedForm, kInverseGradients, kObservedFisher };

const char* StatsMethodName(StatsMethod method);

/// System-level knobs. Defaults follow the paper where it states a value
/// (initial sample 10K, ObservedFisher, BFGS/L-BFGS policy) and otherwise
/// use settings validated by the test suite.
struct BlinkConfig {
  /// n_0: size of the initial training sample (paper default 10K).
  Dataset::Index initial_sample_size = 10000;

  /// Rows held out from training for estimating v (paper Section 2.1).
  Dataset::Index holdout_size = 2000;

  /// Rows used by ObservedFisher for the gradient-covariance estimate: a
  /// uniform sub-sample of the training sample, so the estimate stays
  /// unbiased while its cost is bounded by this size rather than by n_0.
  Dataset::Index stats_sample_size = 1024;

  /// Rank cap of the parameter-sampler factor (0 = no cap); directions are
  /// kept by largest variance contribution, so truncation drops the ones
  /// that add least to the sampled parameter spread.
  Matrix::Index sampler_max_rank = 512;

  /// Monte-Carlo samples k for the Model Accuracy Estimator (Lemma 2).
  int accuracy_samples = 512;

  /// Monte-Carlo samples k for the Sample Size Estimator.
  int size_samples = 256;

  StatsMethod stats_method = StatsMethod::kObservedFisher;

  /// Never train the final model on fewer rows than this.
  Dataset::Index min_sample_size = 100;

  /// Master seed for every random choice (sampling, Monte Carlo).
  std::uint64_t seed = 42;

  /// Parallel-runtime knobs (lane count, pool, kernel ISA); installed by
  /// Coordinator::Train for the duration of a run. The determinism
  /// contract (runtime/parallel.h) guarantees identical results for any
  /// num_threads setting.
  RuntimeOptions runtime;

  /// Training configuration (optimizer choice defaults to the paper's
  /// dimension policy).
  TrainerOptions trainer;
};

}  // namespace blinkml

#endif  // BLINKML_CORE_CONTRACT_H_
