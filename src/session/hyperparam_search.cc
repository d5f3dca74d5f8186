#include "session/hyperparam_search.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <tuple>
#include <typeindex>
#include <utility>

#include "obs/trace.h"
#include "runtime/parallel.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace blinkml {

namespace {

/// Higher-is-better scalar score of a model on `eval_data`.
double ScoreOf(const ModelSpec& spec, const Vector& theta,
               const Dataset& eval_data) {
  if (eval_data.task() == Task::kUnsupervised || !eval_data.has_labels()) {
    return -spec.Objective(theta, eval_data);
  }
  return 1.0 - spec.GeneralizationError(theta, eval_data);
}

/// Batched scoring: candidates that share an eval dataset and model class
/// are scored from one PredictBatch matrix. Returns the number of
/// prediction matrices built. Scores equal ScoreOf bitwise: a PredictBatch
/// column equals Predict (ModelSpec::PredictBatch) and
/// GeneralizationErrorFromColumn aggregates in the same row order.
int ScoreCandidatesBatched(
    const std::vector<std::shared_ptr<ModelSpec>>& specs,
    const Dataset* validation, std::vector<CandidateResult>* candidates) {
  // Group by (eval dataset, exact spec type, parameter dimension).
  // Candidates on different seeds have different holdouts and group
  // apart; mixed model classes — including subclasses of a built-in spec,
  // via the dynamic type — never share a matrix, and PPCA ranks split on
  // the dimension.
  using GroupKey = std::tuple<const Dataset*, std::type_index, Vector::Index>;
  std::map<GroupKey, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < candidates->size(); ++i) {
    CandidateResult& slot = (*candidates)[i];
    if (!slot.status.ok() || slot.skipped) continue;
    const ModelSpec& spec = *specs[i];
    const Dataset* eval_data =
        validation ? validation : slot.result.holdout.get();
    if (eval_data->task() == Task::kUnsupervised ||
        !eval_data->has_labels() || !spec.has_batch_predictions()) {
      // Objective-based scores have no prediction matrix to share, and a
      // spec without a real batch kernel would pay MORE for the matrix (K
      // per-column Predict passes) than for the per-candidate passes it
      // replaces.
      slot.score = ScoreOf(spec, slot.result.model.theta, *eval_data);
      continue;
    }
    groups[{eval_data, std::type_index(typeid(spec)),
            slot.result.model.theta.size()}]
        .push_back(i);
  }
  int matrices = 0;
  for (const auto& [key, members] : groups) {
    const Dataset& eval_data = *std::get<0>(key);
    if (members.size() == 1) {
      // A one-candidate group (e.g. per-candidate seeds => per-candidate
      // holdouts) gains nothing from a matrix.
      CandidateResult& slot = (*candidates)[members.front()];
      slot.score =
          ScoreOf(*specs[members.front()], slot.result.model.theta, eval_data);
      continue;
    }
    std::vector<const Vector*> thetas;
    thetas.reserve(members.size());
    for (const std::size_t i : members) {
      thetas.push_back(&(*candidates)[i].result.model.theta);
    }
    // Every member has the same dynamic type, and batch predictions read
    // no spec state but theta (has_batch_predictions), so the first
    // member's spec serves the whole group.
    Matrix predictions;
    specs[members.front()]->PredictBatch(thetas, eval_data, &predictions);
    ++matrices;
    for (std::size_t c = 0; c < members.size(); ++c) {
      CandidateResult& slot = (*candidates)[members[c]];
      slot.score = 1.0 - specs[members[c]]->GeneralizationErrorFromColumn(
                             predictions, static_cast<Matrix::Index>(c),
                             eval_data);
    }
  }
  return matrices;
}

}  // namespace

HyperparamSearch::HyperparamSearch(TrainingSession* session,
                                   SearchOptions options)
    : session_(session), options_(std::move(options)) {}

std::vector<Candidate> HyperparamSearch::LogGrid(double lo, double hi,
                                                 int count) {
  std::vector<Candidate> out;
  if (count <= 0 || lo <= 0.0 || hi < lo) return out;
  out.reserve(static_cast<std::size_t>(count));
  const double log_lo = std::log(lo);
  const double log_hi = std::log(hi);
  for (int i = 0; i < count; ++i) {
    const double t = count > 1 ? static_cast<double>(i) / (count - 1) : 0.0;
    Candidate c;
    // Exact endpoints (exp(log(x)) can be one ulp off).
    c.l2 = i == 0 ? lo
                  : (i == count - 1 ? hi
                                    : std::exp(log_lo + t * (log_hi - log_lo)));
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<Candidate> HyperparamSearch::LogRandom(double lo, double hi,
                                                   int count,
                                                   std::uint64_t seed) {
  std::vector<Candidate> out;
  if (count <= 0 || lo <= 0.0 || hi < lo) return out;
  out.reserve(static_cast<std::size_t>(count));
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    Candidate c;
    c.l2 = std::exp(rng.Uniform(std::log(lo), std::log(hi)));
    out.push_back(std::move(c));
  }
  return out;
}

SearchOutcome HyperparamSearch::Run(
    const SpecFactory& factory,
    const std::vector<Candidate>& candidates) const {
  SearchOutcome out;
  out.candidates.resize(candidates.size());
  if (candidates.empty()) return out;

  // The session config's runtime knobs govern the whole search: pool
  // lanes claim the candidates below one at a time, and every parallel
  // region a candidate opens then runs inline on its lane (same chunk
  // layouts, same results — runtime/parallel.h).
  RuntimeScope runtime_scope(session_->config().runtime);

  WallTimer search_timer;
  std::atomic<int> final_train_tokens{options_.max_final_trains > 0
                                          ? options_.max_final_trains
                                          : std::numeric_limits<int>::max()};
  std::mutex best_mu;
  double best_completed_score = -std::numeric_limits<double>::infinity();
  // Dominance pruning consumes completed scores while candidates run, so
  // it keeps the inline per-candidate scoring; otherwise scoring is
  // deferred and batched after the training loop.
  const bool defer_scoring = !options_.prune_dominated;
  std::vector<std::shared_ptr<ModelSpec>> specs(candidates.size());

  const auto k = static_cast<ParallelIndex>(candidates.size());
  // Candidate chunks run on pool lanes; re-install the submitter's trace
  // context (the wire request_id when serving) on each lane so the
  // per-candidate phase and kernel spans stay correlated to the request.
  ParallelFor(
      0, k,
      [&, trace_ctx = obs::CurrentTraceContext()](ParallelIndex begin,
                                                  ParallelIndex end) {
        obs::ScopedTraceContext scoped_trace(trace_ctx);
        for (ParallelIndex i = begin; i < end; ++i) {
          CandidateResult& slot =
              out.candidates[static_cast<std::size_t>(i)];
          slot.candidate = candidates[static_cast<std::size_t>(i)];
          if (slot.candidate.label.empty()) {
            slot.candidate.label = StrFormat("l2=%g", slot.candidate.l2);
          }
          if (options_.time_budget_seconds > 0.0 &&
              search_timer.Seconds() >= options_.time_budget_seconds) {
            slot.skipped = true;
            continue;
          }
          WallTimer timer;
          const std::shared_ptr<ModelSpec> spec = factory(slot.candidate);
          if (!spec) {
            slot.status = Status::InvalidArgument(
                "spec factory rejected candidate " + slot.candidate.label);
            continue;
          }
          specs[static_cast<std::size_t>(i)] = spec;
          const std::uint64_t seed = slot.candidate.seed != 0
                                         ? slot.candidate.seed
                                         : session_->config().seed;
          auto pipeline_or =
              session_->MakePipeline(*spec, options_.contract, seed);
          if (!pipeline_or.ok()) {
            slot.status = pipeline_or.status();
            continue;
          }
          TrainingPipeline& pipeline = **pipeline_or;

          Status st = pipeline.TrainInitial();
          if (st.ok()) st = pipeline.ComputeInitialStatistics();
          if (st.ok()) st = pipeline.EstimateInitialAccuracy();
          if (!st.ok()) {
            slot.status = st;
            continue;
          }

          double m0_score = 0.0;
          bool m0_scored = false;
          if (!pipeline.initial_meets_contract()) {
            bool run_final = true;
            if (options_.prune_dominated) {
              // Optimistic bound: the contract-bound final model agrees
              // with m_0 on all but an eps_0 fraction of points (w.p.
              // 1 - delta), so its score is at most score(m_0) + eps_0.
              // A candidate that cannot beat the best completed score
              // even then is dominated: stop after m_0. (Exact for
              // classification accuracy; a heuristic otherwise — see the
              // SearchOptions doc.)
              const Dataset& eval_data = options_.validation
                                             ? *options_.validation
                                             : pipeline.holdout();
              m0_score =
                  ScoreOf(*spec, pipeline.initial_model().theta, eval_data);
              m0_scored = true;
              const double optimistic = m0_score + pipeline.initial_epsilon();
              std::lock_guard<std::mutex> lock(best_mu);
              if (best_completed_score >= optimistic) {
                run_final = false;
                slot.pruned = true;
              }
            }
            if (run_final && final_train_tokens.fetch_sub(
                                 1, std::memory_order_relaxed) <= 0) {
              run_final = false;
              slot.final_train_skipped = true;
            }
            if (run_final) {
              st = pipeline.EstimateMinimumSampleSize();
              if (st.ok()) st = pipeline.TrainFinal();
              if (!st.ok()) {
                // Refund the token: this candidate failed, so the budget
                // should still admit another candidate's final training.
                final_train_tokens.fetch_add(1, std::memory_order_relaxed);
                slot.status = st;
                continue;
              }
            }
          }

          slot.result = pipeline.Finish();
          session_->RecordRun(slot.result.timings);
          if (!defer_scoring) {
            if (slot.result.used_initial_only && m0_scored) {
              // The returned model IS m_0; reuse the dominance-check score
              // instead of a second pass over the eval data.
              slot.score = m0_score;
            } else {
              const Dataset& eval_data = options_.validation
                                             ? *options_.validation
                                             : *slot.result.holdout;
              slot.score = ScoreOf(*spec, slot.result.model.theta, eval_data);
            }
            std::lock_guard<std::mutex> lock(best_mu);
            best_completed_score =
                std::max(best_completed_score, slot.score);
          }
          slot.seconds = timer.Seconds();
        }
      },
      /*grain=*/1);

  if (defer_scoring) {
    out.batched_score_groups =
        ScoreCandidatesBatched(specs, options_.validation, &out.candidates);
  }

  out.total_seconds = search_timer.Seconds();
  for (std::size_t i = 0; i < out.candidates.size(); ++i) {
    const CandidateResult& c = out.candidates[i];
    if (!c.status.ok() || c.skipped) continue;
    if (out.best_index < 0 ||
        c.score > out.candidates[static_cast<std::size_t>(out.best_index)]
                      .score) {
      out.best_index = static_cast<int>(i);
    }
  }
  out.session_stats = session_->stats();
  return out;
}

}  // namespace blinkml
