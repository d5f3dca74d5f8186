#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "core/conservative.h"
#include "runtime/parallel.h"
#include "tests/reference/reference.h"
#include "util/stats.h"

namespace blinkml {
namespace reference {

namespace {

using Index = Dataset::Index;

// Calls body(i, chunk_rng) for every sample i in order, with the chunk
// layout and per-chunk Rng streams the production estimators use (the
// chunks run one after another here; each owns its stream, so the draws
// are the same as in the parallel loop).
template <typename Body>
void ForEachSample(int k, Rng* rng, const Body& body) {
  const ChunkLayout layout = ComputeChunks(k, kFineGrain);
  std::vector<Rng> chunk_rngs = SplitRngPerChunk(layout, rng);
  for (ParallelIndex c = 0; c < layout.num_chunks; ++c) {
    const ParallelIndex b = c * layout.chunk_size;
    const ParallelIndex e = std::min<ParallelIndex>(b + layout.chunk_size, k);
    Rng* chunk_rng = &chunk_rngs[static_cast<std::size_t>(c)];
    for (ParallelIndex i = b; i < e; ++i) {
      body(static_cast<std::size_t>(i), chunk_rng);
    }
  }
}

}  // namespace

AccuracyEstimate EstimateAccuracyPerDraw(
    const ModelSpec& spec, const Vector& theta_n, Index n, Index full_n,
    const ParamSampler& sampler, const Dataset& holdout,
    const AccuracyOptions& options, Rng* rng) {
  BLINKML_CHECK(n > 0 && n <= full_n);
  AccuracyEstimate out;
  out.num_samples = options.num_samples;
  if (n == full_n) return out;

  const double scale = std::sqrt(1.0 / static_cast<double>(n) -
                                 1.0 / static_cast<double>(full_n));
  const bool score_path = spec.has_linear_scores();
  Matrix base_scores;
  if (score_path) base_scores = spec.Scores(theta_n, holdout);
  std::vector<double> vs(static_cast<std::size_t>(options.num_samples));
  ForEachSample(options.num_samples, rng, [&](std::size_t i, Rng* draw_rng) {
    const Vector delta_theta = sampler.Draw(scale, draw_rng);
    if (score_path) {
      Matrix scores = spec.Scores(delta_theta, holdout);
      scores += base_scores;
      vs[i] = spec.DiffFromScores(base_scores, scores, holdout);
    } else {
      Vector theta_full = theta_n;
      theta_full += delta_theta;
      vs[i] = spec.Diff(theta_n, theta_full, holdout);
    }
  });

  out.mean_v = Mean(vs);
  out.quantile_level =
      ConservativeQuantileLevel(options.delta, options.num_samples).level;
  out.epsilon = UpperOrderStatistic(vs, out.quantile_level);
  return out;
}

SampleSizeEstimate EstimateSampleSizePerDraw(
    const ModelSpec& spec, const Vector& theta0, Index n0, Index full_n,
    const ParamSampler& sampler, const Dataset& holdout,
    const SampleSizeOptions& options, Rng* rng) {
  BLINKML_CHECK(n0 > 0 && n0 <= full_n);
  const int k = options.num_samples;
  const bool score_path = spec.has_linear_scores();

  // Unscaled draws u_i, w_i (as holdout scores on the score path).
  std::vector<Matrix> score_u(static_cast<std::size_t>(k));
  std::vector<Matrix> score_w(static_cast<std::size_t>(k));
  std::vector<Vector> param_u(static_cast<std::size_t>(k));
  std::vector<Vector> param_w(static_cast<std::size_t>(k));
  ForEachSample(k, rng, [&](std::size_t i, Rng* draw_rng) {
    Vector u = sampler.Draw(1.0, draw_rng);
    Vector w = sampler.Draw(1.0, draw_rng);
    if (score_path) {
      score_u[i] = spec.Scores(u, holdout);
      score_w[i] = spec.Scores(w, holdout);
    } else {
      param_u[i] = std::move(u);
      param_w[i] = std::move(w);
    }
  });
  Matrix base_scores;
  if (score_path) base_scores = spec.Scores(theta0, holdout);

  SampleSizeEstimate out;
  out.quantile_level = ConservativeQuantileLevel(options.delta, k).level;

  // v(theta_n,i, theta_N,i) of every pair, memoized so out.evaluations
  // counts distinct candidates.
  std::map<Index, std::vector<double>> memo;
  auto pair_v = [&](Index n) -> const std::vector<double>& {
    const auto it = memo.find(n);
    if (it != memo.end()) return it->second;
    const double a1 = std::sqrt(std::max(
        0.0, 1.0 / static_cast<double>(n0) - 1.0 / static_cast<double>(n)));
    const double a2 = std::sqrt(std::max(
        0.0, 1.0 / static_cast<double>(n) - 1.0 / static_cast<double>(full_n)));
    std::vector<double> vs(static_cast<std::size_t>(k));
    for (std::size_t i = 0; i < static_cast<std::size_t>(k); ++i) {
      double& v = vs[i];
      if (score_path) {
        Matrix s1(base_scores.rows(), base_scores.cols());
        Matrix s2(base_scores.rows(), base_scores.cols());
        for (Matrix::Index r = 0; r < s1.rows(); ++r) {
          for (Matrix::Index j = 0; j < s1.cols(); ++j) {
            s1(r, j) = score_u[i](r, j) * a1 + base_scores(r, j);
            s2(r, j) = score_w[i](r, j) * a2 + s1(r, j);
          }
        }
        v = spec.DiffFromScores(s1, s2, holdout);
      } else {
        Vector t1 = theta0;
        Axpy(a1, param_u[i], &t1);
        Vector t2 = t1;
        Axpy(a2, param_w[i], &t2);
        v = spec.Diff(t1, t2, holdout);
      }
    }
    ++out.evaluations;
    return memo[n] = std::move(vs);
  };
  auto success_fraction = [&](Index n) {
    int ok = 0;
    for (const double v : pair_v(n)) ok += v <= options.epsilon ? 1 : 0;
    return static_cast<double>(ok) / static_cast<double>(k);
  };
  auto feasible = [&](Index n) {
    return success_fraction(n) >= out.quantile_level;
  };

  // Bisection for the smallest feasible n in [max(min_n, 1), N]; n = N is
  // always feasible.
  Index lo = std::min(std::max<Index>(options.min_n, 1), full_n);
  Index hi = full_n;
  if (feasible(lo)) {
    out.sample_size = lo;
  } else {
    while (hi - lo > 1) {
      const Index mid = lo + (hi - lo) / 2;
      (feasible(mid) ? hi : lo) = mid;
    }
    out.sample_size = hi;
  }
  out.success_fraction = success_fraction(out.sample_size);
  out.epsilon = UpperOrderStatistic(pair_v(out.sample_size),
                                    out.quantile_level);

  // v(theta0, theta0 + a u_i) at alpha = 1/n0 + 1/n - 2/N.
  const double a = std::sqrt(std::max(
      0.0, 1.0 / static_cast<double>(n0) +
               1.0 / static_cast<double>(out.sample_size) -
               2.0 / static_cast<double>(full_n)));
  std::vector<double> initial_v(static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < initial_v.size(); ++i) {
    if (score_path) {
      Matrix s2(base_scores.rows(), base_scores.cols());
      for (Matrix::Index r = 0; r < s2.rows(); ++r) {
        for (Matrix::Index j = 0; j < s2.cols(); ++j) {
          s2(r, j) = score_u[i](r, j) * a + base_scores(r, j);
        }
      }
      initial_v[i] = spec.DiffFromScores(base_scores, s2, holdout);
    } else {
      Vector t = theta0;
      Axpy(a, param_u[i], &t);
      initial_v[i] = spec.Diff(theta0, t, holdout);
    }
  }
  out.initial_diff_bound =
      UpperOrderStatistic(std::move(initial_v), out.quantile_level);
  return out;
}

}  // namespace reference
}  // namespace blinkml
