// Conservative empirical-quantile level (repaired paper Lemma 2).
//
// Given k i.i.d. Monte-Carlo draws of the model difference v, the accuracy
// estimator returns the empirical quantile of {v_i} at level
//   p(c) = (1 - delta)/c + sqrt(ln(1/(1-c)) / (2k)),
// minimized over the split constant c in (1 - delta, 1). Derivation: if the
// *true* probability Pr[v <= eps] is at least (1-delta)/c (event B), and a
// one-sided Hoeffding bound with failure probability 1-c connects the
// empirical fraction to the true one (event C => B), then
// Pr[v(m_n) <= eps] >= (1-delta)/c * c = 1-delta.
//
// The paper's printed constant (split 0.95 with a Hoeffding step at failure
// probability 0.95) makes the level exceed 1 for every delta <= 0.05 — the
// regime all its experiments use. When even the
// optimized level exceeds 1 (small k), the level clamps to 1, i.e. the
// estimator returns the maximum sampled v — the most conservative choice
// k draws permit.

#ifndef BLINKML_CORE_CONSERVATIVE_H_
#define BLINKML_CORE_CONSERVATIVE_H_

namespace blinkml {

struct QuantileLevel {
  /// Level in (0, 1]: the fraction of sampled v's that must lie below the
  /// returned bound.
  double level = 1.0;
  /// The split constant c that attained it.
  double split_c = 0.95;
  /// True when no feasible level < 1 exists for this (delta, k).
  bool clamped = false;
};

/// Computes the minimal conservative quantile level for confidence
/// 1 - delta from k Monte-Carlo samples. Checks delta in (0,1) and k >= 1.
QuantileLevel ConservativeQuantileLevel(double delta, int k);

/// Lemma 1 (paper Section 2.1): bound on the *full* model's generalization
/// error given the approximate model's generalization error eps_g and the
/// contract bound eps: gen(m_N) <= eps_g + eps - eps_g * eps.
double FullModelGeneralizationBound(double eps_g, double eps);

}  // namespace blinkml

#endif  // BLINKML_CORE_CONSERVATIVE_H_
