// Concurrent hyperparameter search over a TrainingSession (the paper's
// Section 3.4 / Figure 10 workload).
//
// Candidates — grid or random points over a regularization/model knob —
// execute concurrently on the runtime thread pool: each free lane claims
// the next unstarted candidate, in candidate order, so a slow candidate
// holds up only its own lane. Each candidate's own parallel regions run
// inline, so results stay bitwise identical to standalone
// Coordinator::Train runs at any thread count. Results come back in
// candidate order regardless of completion order.
//
// Budgets:
//  * time_budget_seconds — candidates that have not started when the
//    budget expires are skipped (flagged, never silently dropped);
//  * max_final_trains — a token budget on the expensive final-training
//    stage; candidates beyond it return their initial model, and a final
//    train that fails gives its token back to a later candidate.
// Which candidates a budget clips depends on completion order and is the
// one scheduling-dependent part of the search; with the budgets off the
// outcome is fully deterministic.
//
// Scoring: candidates that share an eval dataset and model class are
// scored after the training loop from ONE prediction matrix
// (ModelSpec::PredictBatch) instead of one eval pass each; scores are
// bitwise equal to per-candidate GeneralizationError by construction,
// since a PredictBatch column equals Predict (models/glm_spec.h).

#ifndef BLINKML_SESSION_HYPERPARAM_SEARCH_H_
#define BLINKML_SESSION_HYPERPARAM_SEARCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "session/training_session.h"

namespace blinkml {

/// One hyperparameter configuration.
struct Candidate {
  /// The regularization knob (what the paper sweeps); interpreted by the
  /// caller's spec factory, which may map it to any model knob.
  double l2 = 1e-3;
  /// Master seed of this candidate's run; 0 = the session seed (all such
  /// candidates then share one cached prefix).
  std::uint64_t seed = 0;
  /// Display label; defaulted to "l2=<value>" when empty.
  std::string label;
};

/// Builds the candidate's model spec (e.g. LogisticRegressionSpec{c.l2});
/// nullptr rejects the candidate, which then fails with InvalidArgument.
using SpecFactory =
    std::function<std::shared_ptr<ModelSpec>(const Candidate&)>;

struct SearchOptions {
  ApproximationContract contract;
  /// Wall-clock budget for the whole search; 0 = unlimited.
  double time_budget_seconds = 0.0;
  /// Token budget of final trainings; 0 = unlimited.
  int max_final_trains = 0;
  /// Dataset to score candidates on; nullptr = the session holdout. Must
  /// outlive Run().
  const Dataset* validation = nullptr;
};

struct CandidateResult {
  Candidate candidate;
  /// Training failure, if any; budget clipping is reported through the
  /// flags below, not through the status.
  Status status = Status::OK();
  /// Valid iff status.ok() and !skipped.
  ApproxResult result;
  /// Validation accuracy (supervised) or negative objective
  /// (unsupervised); higher is better.
  double score = 0.0;
  double seconds = 0.0;
  bool skipped = false;             // never started (time budget)
  bool final_train_skipped = false; // max_final_trains exhausted
};

struct SearchOutcome {
  /// Same order as the input candidates.
  std::vector<CandidateResult> candidates;
  /// Highest-scoring candidate with an ok result (-1 if none); ties go to
  /// the lower index.
  int best_index = -1;
  double total_seconds = 0.0;
  /// Prediction matrices built by batched scoring; each one replaced a
  /// group of per-candidate holdout passes.
  int batched_score_groups = 0;
  /// Session accounting snapshot taken after the search.
  SessionStats session_stats;
};

class HyperparamSearch {
 public:
  /// The session must outlive the search.
  explicit HyperparamSearch(TrainingSession* session,
                            SearchOptions options = {});

  /// `count` log-spaced candidates in [lo, hi] (grid search).
  static std::vector<Candidate> LogGrid(double lo, double hi, int count);

  /// `count` log-uniform random candidates in [lo, hi] (random search).
  static std::vector<Candidate> LogRandom(double lo, double hi, int count,
                                          std::uint64_t seed);

  /// Runs every candidate through the session, concurrently.
  SearchOutcome Run(const SpecFactory& factory,
                    const std::vector<Candidate>& candidates) const;

 private:
  TrainingSession* session_;
  SearchOptions options_;
};

}  // namespace blinkml

#endif  // BLINKML_SESSION_HYPERPARAM_SEARCH_H_
