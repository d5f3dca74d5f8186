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
#include "util/stats.h"
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
  // or as parameter vectors (generic path; O(k p) memory). The score path
  // keeps each group's two ScoresBatch matrices as they come: group j of
  // draw chunk c is slot c * groups_per_chunk + j (only the last chunk can
  // be shorter), and its width is its column count over C.
  const ChunkLayout layout = ComputeChunks(k, kFineGrain);
  auto groups_in = [](ParallelIndex len) {
    return (len + kernels::kMultiVec - 1) / kernels::kMultiVec;
  };
  const ParallelIndex groups_per_chunk = groups_in(layout.chunk_size);
  std::vector<Matrix> group_u, group_w;
  std::vector<std::size_t> group_first;  // the slot's first pair
  std::vector<Vector> param_u, param_w;
  if (score_path) {
    const ParallelIndex last_chunk =
        k - (layout.num_chunks - 1) * layout.chunk_size;
    const auto groups = static_cast<std::size_t>(
        (layout.num_chunks - 1) * groups_per_chunk + groups_in(last_chunk));
    group_u.resize(groups);
    group_w.resize(groups);
    group_first.resize(groups);
  } else {
    param_u.resize(static_cast<std::size_t>(k));
    param_w.resize(static_cast<std::size_t>(k));
  }
  {
    // Observability only (wall clock around the loop; never feeds back).
    obs::SpanScope span("mc:size_draws", "estimator", "num_samples", k);
    WallTimer draw_timer;
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
          std::size_t slot =
              static_cast<std::size_t>(chunk * groups_per_chunk);
          for (ParallelIndex g = b; g < e; g += kernels::kMultiVec, ++slot) {
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
              group_u[slot] = spec.ScoresBatch(ptrs, holdout);
              ptrs.clear();
              for (const Vector& w : ws) ptrs.push_back(&w);
              group_w[slot] = spec.ScoresBatch(ptrs, holdout);
              group_first[slot] = static_cast<std::size_t>(g);
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
  // One candidate's verdict. fraction and epsilon are full counts whenever
  // the candidate is feasible; an infeasible one may stop early (below).
  struct Evaluation {
    bool feasible;
    double fraction;
    double epsilon;
  };
  // Memo of every candidate n already evaluated: the bisection can revisit
  // a candidate (the final report at the returned n, or a trivially
  // feasible lower bound), and each Monte-Carlo pass over the k pairs is
  // the dominant search cost. out.evaluations counts memo misses only, so
  // it equals the number of *distinct* candidates evaluated.
  std::vector<std::pair<Index, Evaluation>> evaluated;
  const auto units = static_cast<ParallelIndex>(
      score_path ? group_w.size() : static_cast<std::size_t>(k));
  std::vector<double> pair_v(static_cast<std::size_t>(k));
  // A unit where the last infeasible candidate failed: bisection then
  // evaluates only larger n, where (common random numbers) the pairs that
  // failed there are the likeliest to fail again, so scans start there.
  std::atomic<ParallelIndex> failed_unit{0};
  ParallelIndex start_unit = 0;
  auto evaluate = [&](Index n) {
    for (const auto& memo : evaluated) {
      if (memo.first == n) return memo.second;
    }
    obs::SpanScope eval_span("mc:size_eval", "estimator", "candidate_n",
                             static_cast<long long>(n));
    WallTimer eval_timer;
    const Scales s = ScalesFor(n0, n, full_n);
    // Early exit: once more than `allowed` pairs have failed, the
    // candidate is infeasible whatever the rest give, so every chunk stops
    // at its next group (the score path's unit) or pair (the generic
    // path's). The count is shared across chunks; which pairs were scanned
    // then depends on scheduling, but the verdict does not, and a feasible
    // candidate never reaches the exit, so its count is always full. The
    // candidate n = N, whose fraction the search may have to report, always
    // scans every pair.
    const int exit_after = n == full_n ? k : allowed;
    std::atomic<int> failures{0};
    const int ok_count = ParallelReduce(
        ParallelIndex{0}, units, 0,
        [&](ParallelIndex b, ParallelIndex e) {
          int part = 0;
          Vector t1, t2;  // generic-path scratch, reused across pairs
          for (ParallelIndex i = b; i < e; ++i) {
            if (failures.load() > exit_after) break;
            const ParallelIndex rotated = (start_unit + i) % units;
            const auto unit = static_cast<std::size_t>(rotated);
            double* const vs =
                pair_v.data() + (score_path ? group_first[unit] : unit);
            Matrix::Index width = 1;
            if (score_path) {
              // v of every pair in the group, from scores(theta_n,i) =
              // S0 + a1 * Su_i and scores(theta_N,i) = S0 + a1 * Su_i +
              // a2 * Sw_i.
              width = group_w[unit].cols() / base_scores.cols();
              spec.DiffsFromScoreBatch(base_scores, &group_u[unit], s.a1,
                                       group_w[unit], s.a2, holdout, vs);
            } else {
              t1 = theta0;
              Axpy(s.a1, param_u[unit], &t1);
              t2 = t1;
              Axpy(s.a2, param_w[unit], &t2);
              vs[0] = spec.Diff(t1, t2, holdout);
            }
            int failed = 0;
            for (Matrix::Index t = 0; t < width; ++t) {
              if (vs[t] <= options.epsilon) {
                ++part;
              } else {
                ++failed;
              }
            }
            if (failed > 0) {
              failures += failed;
              failed_unit.store(rotated);
            }
          }
          return part;
        },
        [](int acc, int part) { return acc + part; },
        score_path ? 1 : kFineGrain);
    ++out.evaluations;
    eval_seconds->Add(eval_timer.Seconds());
    const bool ok = failures.load() <= allowed;
    if (!ok) start_unit = failed_unit.load();
    const Evaluation result{ok, fraction_of(ok_count),
                            ok ? UpperOrderStatistic(pair_v, level.level) : 0.0};
    evaluated.emplace_back(n, result);
    return result;
  };
  auto feasible = [&](Index n) { return evaluate(n).feasible; };

  Index lo = std::max<Index>(options.min_n, 1);
  lo = std::min(lo, full_n);
  Index hi = full_n;
  if (feasible(lo)) hi = lo;
  // Invariant unless hi = lo: lo infeasible, hi feasible (at n = N the two
  // parameter draws coincide up to a2 = 0, giving v = 0 <= eps per pair).
  while (hi - lo > 1) {
    const Index mid = lo + (hi - lo) / 2;
    if (feasible(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  // Memoized whenever hi was probed; evaluated once here otherwise (hi ==
  // full_n with no feasible midpoint found).
  const Evaluation at_n = evaluate(hi);
  out.sample_size = hi;
  out.success_fraction = at_n.fraction;
  out.epsilon = at_n.epsilon;
  // initial_diff_bound: v(S0, S0 + a Su_i), each u block in the w slot.
  const double a = std::sqrt(std::max(
      0.0, 1.0 / static_cast<double>(n0) + 1.0 / static_cast<double>(hi) -
               2.0 / static_cast<double>(full_n)));
  Vector theta;
  for (std::size_t unit = 0; unit < static_cast<std::size_t>(units); ++unit) {
    if (score_path) {
      spec.DiffsFromScoreBatch(base_scores, nullptr, 0.0, group_u[unit], a,
                               holdout, pair_v.data() + group_first[unit]);
    } else {
      theta = theta0;
      Axpy(a, param_u[unit], &theta);
      pair_v[unit] = spec.Diff(theta0, theta, holdout);
    }
  }
  out.initial_diff_bound = UpperOrderStatistic(pair_v, level.level);
  return out;
}

}  // namespace blinkml
