#include "core/sample_size_estimator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>
#include <vector>

#include "core/conservative.h"
#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel.h"
#include "util/timer.h"

namespace blinkml {

namespace {

using Index = Dataset::Index;

// The Monte-Carlo loops chunk with the runtime's kFineGrain so the chunk
// layout (and the per-chunk Rng stream assignment) never depends on the
// thread count. See accuracy_estimator.cc for the determinism argument.

// Scales for a candidate n: a1 = sqrt(1/n0 - 1/n), a2 = sqrt(1/n - 1/N).
struct Scales {
  double a1;
  double a2;
};

Scales ScalesFor(Index n0, Index n, Index full_n) {
  const double inv_n0 = 1.0 / static_cast<double>(n0);
  const double inv_n = 1.0 / static_cast<double>(n);
  const double inv_full = 1.0 / static_cast<double>(full_n);
  return {std::sqrt(std::max(0.0, inv_n0 - inv_n)),
          std::sqrt(std::max(0.0, inv_n - inv_full))};
}

}  // namespace

Result<SampleSizeEstimate> EstimateSampleSize(
    const ModelSpec& spec, const Vector& theta0, Index n0, Index full_n,
    const ParamSampler& sampler, const Dataset& holdout,
    const SampleSizeOptions& options, Rng* rng) {
  if (n0 <= 0 || n0 > full_n) {
    return Status::InvalidArgument("need 0 < n0 <= N");
  }
  if (options.num_samples < 1) {
    return Status::InvalidArgument("need at least one Monte-Carlo sample");
  }
  if (!(options.delta > 0.0 && options.delta < 1.0)) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  if (options.epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be >= 0");
  }

  const int k = options.num_samples;
  const bool score_path = spec.has_linear_scores();

  // Unscaled draws (sampling by scaling + common random numbers): u_i and
  // w_i, held either as holdout score deltas (score path; O(k h C) memory)
  // or as parameter vectors (generic path; O(k p) memory).
  std::vector<Matrix> score_u, score_w;
  std::vector<Vector> param_u, param_w;
  if (score_path) {
    score_u.resize(static_cast<std::size_t>(k));
    score_w.resize(static_cast<std::size_t>(k));
  } else {
    param_u.resize(static_cast<std::size_t>(k));
    param_w.resize(static_cast<std::size_t>(k));
  }
  {
    // Observability only (wall clock around the loop; never feeds back).
    obs::SpanScope span("mc:size_draws", "estimator", "num_samples", k);
    WallTimer draw_timer;
    const ChunkLayout layout = ComputeChunks(k, kFineGrain);
    std::vector<Rng> chunk_rngs = SplitRngPerChunk(layout, rng);
    ParallelForChunks(
        0, k, layout,
        [&](ParallelIndex chunk, ParallelIndex b, ParallelIndex e) {
          Rng& chunk_rng = chunk_rngs[static_cast<std::size_t>(chunk)];
          // kMultiVec pairs per group. A per-draw loop would consume the
          // stream as z(u_i), z(w_i), z(u_i+1), ... so the two z blocks are
          // filled row-interleaved in exactly that order — the drawn bits
          // match one sampler.Draw per draw (tests/reference/) for any
          // thread count.
          const Vector::Index rank = sampler.rank();
          for (ParallelIndex g = b; g < e; g += kernels::kMultiVec) {
            const ParallelIndex ge =
                std::min<ParallelIndex>(g + kernels::kMultiVec, e);
            const Matrix::Index width = static_cast<Matrix::Index>(ge - g);
            Matrix zu(width, rank);
            Matrix zw(width, rank);
            for (Matrix::Index d = 0; d < width; ++d) {
              chunk_rng.FillNormal(zu.row_data(d), rank);
              chunk_rng.FillNormal(zw.row_data(d), rank);
            }
            std::vector<Vector> us = sampler.DrawBatch(1.0, zu);
            std::vector<Vector> ws = sampler.DrawBatch(1.0, zw);
            if (score_path) {
              std::vector<const Vector*> ptrs;
              for (const Vector& u : us) ptrs.push_back(&u);
              const Matrix batch_u = spec.ScoresBatch(ptrs, holdout);
              ptrs.clear();
              for (const Vector& w : ws) ptrs.push_back(&w);
              const Matrix batch_w = spec.ScoresBatch(ptrs, holdout);
              const Matrix::Index h = holdout.num_rows();
              const Matrix::Index c = batch_u.cols() / width;
              for (Matrix::Index d = 0; d < width; ++d) {
                const std::size_t i =
                    static_cast<std::size_t>(g) + static_cast<std::size_t>(d);
                Matrix su(h, c);
                Matrix sw(h, c);
                for (Matrix::Index r = 0; r < h; ++r) {
                  const double* urow = batch_u.row_data(r) + d * c;
                  const double* wrow = batch_w.row_data(r) + d * c;
                  double* suo = su.row_data(r);
                  double* swo = sw.row_data(r);
                  for (Matrix::Index j = 0; j < c; ++j) {
                    suo[j] = urow[j];
                    swo[j] = wrow[j];
                  }
                }
                score_u[i] = std::move(su);
                score_w[i] = std::move(sw);
              }
            } else {
              for (Matrix::Index d = 0; d < width; ++d) {
                const std::size_t i =
                    static_cast<std::size_t>(g) + static_cast<std::size_t>(d);
                param_u[i] = std::move(us[static_cast<std::size_t>(d)]);
                param_w[i] = std::move(ws[static_cast<std::size_t>(d)]);
              }
            }
          }
        });
    auto& registry = obs::Registry::Global();
    registry.FloatCounter("estimator_seconds", {{"part", "size_draws"}})
        ->Add(draw_timer.Seconds());
    registry.Counter("estimator_draws_total", {{"estimator", "size"}})
        ->Inc(static_cast<std::uint64_t>(2 * k));
  }
  Matrix base_scores;
  if (score_path) base_scores = spec.Scores(theta0, holdout);

  const QuantileLevel level = ConservativeQuantileLevel(options.delta, k);

  SampleSizeEstimate out;
  out.quantile_level = level.level;

  // A candidate n is feasible when the fraction of pairs with
  // v(theta_n,i, theta_N,i) <= eps is at least the level (with level = 1
  // every sampled pair must satisfy eps). `allowed` is the most failing
  // pairs a feasible candidate can have, taken from that same double
  // comparison, so "failures <= allowed" and "fraction >= level" agree for
  // every count. The level is at most 1, so zero failures always pass.
  auto fraction_of = [k](int ok) {
    return static_cast<double>(ok) / static_cast<double>(k);
  };
  int allowed = 0;
  while (allowed < k && fraction_of(k - allowed - 1) >= level.level) {
    ++allowed;
  }

  obs::FloatCounter* const eval_seconds = obs::Registry::Global().FloatCounter(
      "estimator_seconds", {{"part", "size_search_evals"}});
  // One candidate's verdict. fraction is the full count whenever the
  // candidate is feasible; an infeasible one may stop early (below).
  struct Evaluation {
    bool feasible;
    double fraction;
  };
  // Memo of every candidate n already evaluated: the bisection can revisit
  // a candidate (the final report at the returned n, or a trivially
  // feasible lower bound), and each Monte-Carlo pass over the k pairs is
  // the dominant search cost. out.evaluations counts memo misses only, so
  // it equals the number of *distinct* candidates evaluated.
  std::vector<std::pair<Index, Evaluation>> evaluated;
  auto evaluate = [&](Index n) {
    for (const auto& memo : evaluated) {
      if (memo.first == n) return memo.second;
    }
    obs::SpanScope eval_span("mc:size_eval", "estimator", "candidate_n",
                             static_cast<long long>(n));
    WallTimer eval_timer;
    const Scales s = ScalesFor(n0, n, full_n);
    const Matrix::Index score_cols =
        score_path ? base_scores.cols() : Matrix::Index{0};
    // Early exit: once more than `allowed` pairs have failed, the
    // candidate is infeasible whatever the rest give, so every chunk stops
    // scanning. The count is shared across chunks; which pairs were scanned
    // then depends on scheduling, but the verdict does not, and a feasible
    // candidate never reaches the exit, so its count is always full. The
    // candidate n = N, whose fraction the search may have to report, always
    // scans every pair.
    const int exit_after = n == full_n ? k : allowed;
    std::atomic<int> failures{0};
    const int ok_count = ParallelReduce(
        ParallelIndex{0}, static_cast<ParallelIndex>(k), 0,
        [&](ParallelIndex b, ParallelIndex e) {
          int part = 0;
          if (failures.load() > exit_after) return part;  // nothing to scan
          // Per-chunk scratch: the score matrices (and parameter vectors)
          // are overwritten for every pair instead of freshly allocated.
          Matrix s1, s2;
          Vector t1, t2;
          if (score_path) {
            s1 = Matrix(base_scores.rows(), score_cols);
            s2 = Matrix(base_scores.rows(), score_cols);
          } else {
            t1 = Vector(theta0.size());
            t2 = Vector(theta0.size());
          }
          for (ParallelIndex i = b; i < e; ++i) {
            if (failures.load() > exit_after) break;
            double v;
            if (score_path) {
              // scores(theta_n,i) = S0 + a1 * Su_i;
              // scores(theta_N,i) = S0 + a1 * Su_i + a2 * Sw_i.
              // Written fused: s1 = Su_i * a1 + S0 (the same operand order
              // as the copy/scale/add sequence, so the bits are unchanged).
              // All five h x c blocks are contiguous row-major, so one
              // flat loop covers them element by element.
              const double* su = score_u[static_cast<std::size_t>(i)].data();
              const double* sw = score_w[static_cast<std::size_t>(i)].data();
              const double* base = base_scores.data();
              double* s1d = s1.data();
              double* s2d = s2.data();
              for (Matrix::Index j = 0; j < s1.size(); ++j) {
                s1d[j] = su[j] * s.a1 + base[j];
                s2d[j] = sw[j] * s.a2 + s1d[j];
              }
              v = spec.DiffFromScores(s1, s2, holdout);
            } else {
              for (Vector::Index j = 0; j < t1.size(); ++j) t1[j] = theta0[j];
              Axpy(s.a1, param_u[static_cast<std::size_t>(i)], &t1);
              for (Vector::Index j = 0; j < t2.size(); ++j) t2[j] = t1[j];
              Axpy(s.a2, param_w[static_cast<std::size_t>(i)], &t2);
              v = spec.Diff(t1, t2, holdout);
            }
            if (v <= options.epsilon) {
              ++part;
            } else {
              ++failures;
            }
          }
          return part;
        },
        [](int acc, int part) { return acc + part; }, kFineGrain);
    ++out.evaluations;
    eval_seconds->Add(eval_timer.Seconds());
    const Evaluation result{failures.load() <= allowed, fraction_of(ok_count)};
    evaluated.emplace_back(n, result);
    return result;
  };
  auto feasible = [&](Index n) { return evaluate(n).feasible; };

  Index lo = std::max<Index>(options.min_n, 1);
  lo = std::min(lo, full_n);
  Index hi = full_n;
  if (feasible(lo)) {
    out.sample_size = lo;
    out.success_fraction = evaluate(lo).fraction;  // memoized; no re-eval
    return out;
  }
  // Invariant: lo infeasible, hi feasible (at n = N the two parameter
  // draws coincide up to a2 = 0, giving v = 0 <= eps for every pair).
  while (hi - lo > 1) {
    const Index mid = lo + (hi - lo) / 2;
    if (feasible(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  out.sample_size = hi;
  // Memoized whenever hi was probed as a bisection midpoint; evaluated
  // once here otherwise (hi == full_n with no feasible midpoint found).
  out.success_fraction = evaluate(hi).fraction;
  return out;
}

}  // namespace blinkml
