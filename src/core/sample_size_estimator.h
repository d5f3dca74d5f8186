// Sample Size Estimator (paper Section 4): finds the minimum sample size n
// such that Pr[v(m_n, m_N) <= epsilon] >= 1 - delta, without training any
// additional models.
//
// Two-stage sampling from the joint distribution (paper Section 4.1):
//   theta_n,i = theta_0 + sqrt(1/n_0 - 1/n) * W z1_i
//   theta_N,i = theta_n,i + sqrt(1/n - 1/N)  * W z2_i
// and binary search on n (monotonicity is paper Theorem 2).
//
// Optimizations (the first is paper Section 4.3's):
//   * sampling by scaling — the unscaled draws W z1_i, W z2_i are taken
//     once; each candidate n only rescales them;
//   * common random numbers — the same (z1_i, z2_i) pairs are reused for
//     every candidate, making the feasibility test monotone path-by-path;
//   * score caching — for linear-score models the unscaled draws are
//     converted to holdout score deltas once, so each candidate costs
//     O(k * holdout * classes) comparisons with no O(p) work at all;
//   * fused verdicts — the score deltas stay in the ScoresBatch blocks of
//     their groups of 8 pairs, and a candidate scores a whole group with
//     one ModelSpec::DiffsFromScoreBatch call: for logistic regression a
//     count of sign flips between S0 + a1 Su and S0 + a1 Su + a2 Sw, run
//     in SIMD lanes straight from the blocks, with no per-pair score
//     matrix written or re-read;
//   * early exit — a candidate stops at its next group once more pairs
//     have failed than the quantile level allows (the first failure at
//     delta = 0.05), starting at the group where the previous infeasible
//     candidate failed. A feasible candidate never stops, so the returned
//     n, its fraction, its bounds and the evaluation count equal a full
//     scan's.
// On a traced train-dense request (dense 200K x 100 logistic, k = 256,
// h = 2,000, ~18.6 candidates; 4-vCPU Xeon VM, AVX-512) the size estimate
// takes about 17 ms of an 80 ms request (medians of three traced runs).

#ifndef BLINKML_CORE_SAMPLE_SIZE_ESTIMATOR_H_
#define BLINKML_CORE_SAMPLE_SIZE_ESTIMATOR_H_

#include "core/param_sampler.h"
#include "data/dataset.h"
#include "models/model_spec.h"
#include "random/rng.h"
#include "util/status.h"

namespace blinkml {

struct SampleSizeEstimate {
  /// The estimated minimum n.
  Dataset::Index sample_size = 0;
  /// Feasibility probability estimate at the returned n (diagnostic).
  double success_fraction = 0.0;
  /// Upper order statistic at quantile_level of v over the k pairs at the
  /// returned n: the search's own bound there (<= epsilon; 0 at n = N).
  double epsilon = 0.0;
  /// The same of v(theta_0, theta_0 + sqrt(alpha) u_i) with alpha = 1/n0 +
  /// 1/n - 2/N: the draws' bound on v(m_0, m_n) for D_n drawn apart from D_0.
  double initial_diff_bound = 0.0;
  /// Quantile level the search targeted.
  double quantile_level = 1.0;
  /// Monte-Carlo feasibility evaluations performed. Each distinct
  /// candidate n is evaluated exactly once (results are memoized, so
  /// re-reading the fraction at the returned n is free).
  int evaluations = 0;
};

struct SampleSizeOptions {
  int num_samples = 256;  // k Monte-Carlo pairs
  double epsilon = 0.05;
  double delta = 0.05;
  Dataset::Index min_n = 100;
};

/// Estimates the minimum sample size in [max(min_n, n0), full_n] for the
/// contract (epsilon, delta), given the initial model `theta0` trained on
/// n0 rows and its unscaled sampler. Never fails to find an n: at
/// n = full_n the approximate model equals the full model and v = 0.
Result<SampleSizeEstimate> EstimateSampleSize(
    const ModelSpec& spec, const Vector& theta0, Dataset::Index n0,
    Dataset::Index full_n, const ParamSampler& sampler,
    const Dataset& holdout, const SampleSizeOptions& options, Rng* rng);

}  // namespace blinkml

#endif  // BLINKML_CORE_SAMPLE_SIZE_ESTIMATOR_H_
