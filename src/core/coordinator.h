// BlinkML Coordinator (paper Section 2.3 / Figure 2).
//
// Workflow:
//   1. split a holdout off the training set; sample D_0 (n_0 rows) from
//      the remaining pool and train the initial model m_0;
//   2. compute statistics at m_0 (ObservedFisher by default) and estimate
//      m_0's accuracy bound eps_0;
//   3. if eps_0 <= eps: return m_0;
//   4. otherwise consult the Sample Size Estimator for the minimum n, train
//      the final model m_n on a fresh size-n sample (warm-started from m_0),
//      and return it.
// At most two models are ever trained. Per-phase wall-clock timings are
// recorded (they are the subject of paper Figure 8a).
//
// The run body lives in core/pipeline.h as composable stages (prefix +
// TrainingPipeline); Coordinator is the one-shot driver. Multi-model
// drivers that amortize the prefix live in session/training_session.h.

#ifndef BLINKML_CORE_COORDINATOR_H_
#define BLINKML_CORE_COORDINATOR_H_

#include "core/contract.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "models/model_spec.h"
#include "util/status.h"

namespace blinkml {

class Coordinator {
 public:
  explicit Coordinator(BlinkConfig config = {});

  /// Trains an approximate model of `spec` on `data` under `contract`.
  ///
  /// Fails with InvalidArgument for malformed contracts/datasets and
  /// propagates training/statistics failures. Requires the dataset to
  /// have at least a few times the holdout size rows.
  Result<ApproxResult> Train(const ModelSpec& spec, const Dataset& data,
                             const ApproximationContract& contract) const;

  /// Trains m_N, the full model the contract compares against: `spec` on
  /// the pool a Train with this config draws from, which is `data` less
  /// the holdout. The pool is materialized for this call only.
  Result<TrainedModel> TrainFullModel(const ModelSpec& spec,
                                      const Dataset& data) const;

  const BlinkConfig& config() const { return config_; }

 private:
  BlinkConfig config_;
};

}  // namespace blinkml

#endif  // BLINKML_CORE_COORDINATOR_H_
