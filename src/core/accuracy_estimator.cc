#include "core/accuracy_estimator.h"

#include <algorithm>
#include <cmath>

#include "core/conservative.h"
#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel.h"
#include "util/stats.h"
#include "util/timer.h"

namespace blinkml {

// The Monte-Carlo loops below chunk with kFineGrain: each chunk consumes
// its own Rng stream (split off the caller's generator in chunk order
// before the parallel region), and the chunk layout is a pure function of
// the sample count — so the drawn v_i are identical for any thread count,
// including fully serial execution.

Result<AccuracyEstimate> EstimateAccuracy(
    const ModelSpec& spec, const Vector& theta_n, Dataset::Index n,
    Dataset::Index full_n, const ParamSampler& sampler,
    const Dataset& holdout, const AccuracyOptions& options, Rng* rng) {
  if (n <= 0 || n > full_n) {
    return Status::InvalidArgument("need 0 < n <= N");
  }
  if (options.num_samples < 1) {
    return Status::InvalidArgument("need at least one Monte-Carlo sample");
  }
  if (!(options.delta > 0.0 && options.delta < 1.0)) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }

  AccuracyEstimate out;
  out.num_samples = options.num_samples;
  if (n == full_n) {
    out.epsilon = 0.0;
    out.quantile_level = 1.0;
    return out;
  }

  const double alpha = 1.0 / static_cast<double>(n) -
                       1.0 / static_cast<double>(full_n);
  const double scale = std::sqrt(alpha);

  // With cached scores, v_i needs only the score-space delta (scores are
  // linear in theta for every GLM); otherwise fall back to Diff on
  // materialized parameters (PPCA's v is parameter-space and cheap).
  const bool score_path = spec.has_linear_scores();
  Matrix base_scores;
  if (score_path) base_scores = spec.Scores(theta_n, holdout);

  const ParallelIndex k = options.num_samples;
  const ChunkLayout layout = ComputeChunks(k, kFineGrain);
  std::vector<Rng> chunk_rngs = SplitRngPerChunk(layout, rng);
  std::vector<double> vs(static_cast<std::size_t>(k));
  {
    // Observability only: the span + draw-seconds counter read the wall
    // clock around the loop and never touch the drawn values.
    obs::SpanScope span("mc:accuracy_draws", "estimator", "num_samples", k);
    WallTimer draw_timer;
    ParallelForChunks(
        0, k, layout,
        [&](ParallelIndex chunk, ParallelIndex b, ParallelIndex e) {
          Rng& chunk_rng = chunk_rngs[static_cast<std::size_t>(chunk)];
          // Groups of kMultiVec draws share one factor pass and (score
          // path) one batched score pass. The z block is filled row by row
          // from the chunk's stream — the same normal sequence a per-draw
          // loop consumes, so the drawn bits are identical to one
          // sampler.Draw per sample (tests/reference/).
          const Vector::Index rank = sampler.rank();
          std::vector<const Vector*> ptrs;
          for (ParallelIndex g = b; g < e; g += kernels::kMultiVec) {
            const ParallelIndex ge =
                std::min<ParallelIndex>(g + kernels::kMultiVec, e);
            const Matrix::Index width = static_cast<Matrix::Index>(ge - g);
            Matrix zs(width, rank);
            chunk_rng.FillNormal(zs.row_data(0), width * rank);
            const std::vector<Vector> deltas = sampler.DrawBatch(scale, zs);
            if (score_path) {
              ptrs.clear();
              for (const Vector& d : deltas) ptrs.push_back(&d);
              // v_i = DiffFromScores(base, batch_i + base) for the whole
              // group in one call: no u, a2 = 1.
              const Matrix batch = spec.ScoresBatch(ptrs, holdout);
              spec.DiffsFromScoreBatch(base_scores, nullptr, 0.0, batch, 1.0,
                                       holdout,
                                       vs.data() + static_cast<std::size_t>(g));
            } else {
              for (Matrix::Index d = 0; d < width; ++d) {
                Vector theta_full = theta_n;
                theta_full += deltas[static_cast<std::size_t>(d)];
                vs[static_cast<std::size_t>(g) + static_cast<std::size_t>(d)] =
                    spec.Diff(theta_n, theta_full, holdout);
              }
            }
          }
        });
    auto& registry = obs::Registry::Global();
    registry.FloatCounter("estimator_seconds", {{"part", "accuracy_draws"}})
        ->Add(draw_timer.Seconds());
    registry.Counter("estimator_draws_total", {{"estimator", "accuracy"}})
        ->Inc(static_cast<std::uint64_t>(k));
  }

  out.mean_v = Mean(vs);
  const QuantileLevel level =
      ConservativeQuantileLevel(options.delta, options.num_samples);
  out.quantile_level = level.level;
  out.epsilon = UpperOrderStatistic(vs, level.level);
  return out;
}

}  // namespace blinkml
