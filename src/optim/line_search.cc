#include "optim/line_search.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace blinkml {

namespace {

// The first trial step (the natural step of a quasi-Newton direction), the
// cap on the bracketing phase's step doubling, and the f/grad evaluations
// one search may spend.
constexpr double kInitialStep = 1.0;
constexpr double kMaxStep = 1e6;
constexpr int kMaxEvaluations = 40;

// phi(alpha) = f(theta + alpha * d); returns value, fills grad and the
// directional derivative.
struct PhiEval {
  double value;
  double derivative;
};

PhiEval EvalPhi(const DifferentiableObjective& f, const Vector& theta,
                const Vector& direction, double alpha, Vector* point,
                Vector* grad) {
  *point = theta;
  Axpy(alpha, direction, point);
  const double value = f.ValueAndGradient(*point, grad);
  return {value, Dot(*grad, direction)};
}

}  // namespace

LineSearchResult StrongWolfeSearch(const DifferentiableObjective& f,
                                   const Vector& theta, double value0,
                                   const Vector& grad0,
                                   const Vector& direction) {
  LineSearchResult result;
  const double slope0 = Dot(grad0, direction);
  BLINKML_CHECK_MSG(slope0 < 0.0, "not a descent direction");

  Vector point;
  Vector grad;

  double alpha_prev = 0.0;
  double value_prev = value0;
  double slope_prev = slope0;
  double alpha = kInitialStep;

  // Bracketing phase, then zoom on the bracketing interval.
  double lo = 0.0, hi = 0.0;
  double value_lo = value0;
  double slope_lo = slope0;
  bool bracketed = false;

  for (int i = 0; i < kMaxEvaluations && !bracketed; ++i) {
    const PhiEval phi = EvalPhi(f, theta, direction, alpha, &point, &grad);
    ++result.evaluations;
    const bool armijo_violated =
        !std::isfinite(phi.value) ||
        phi.value > value0 + kArmijoC1 * alpha * slope0 ||
        (i > 0 && phi.value >= value_prev);
    if (armijo_violated) {
      lo = alpha_prev;
      value_lo = value_prev;
      slope_lo = slope_prev;
      hi = alpha;
      bracketed = true;
      break;
    }
    if (std::fabs(phi.derivative) <= -kWolfeC2 * slope0) {
      result.success = true;
      result.alpha = alpha;
      result.value = phi.value;
      result.gradient = std::move(grad);
      return result;
    }
    if (phi.derivative >= 0.0) {
      lo = alpha;
      value_lo = phi.value;
      slope_lo = phi.derivative;
      hi = alpha_prev;
      bracketed = true;
      break;
    }
    alpha_prev = alpha;
    value_prev = phi.value;
    slope_prev = phi.derivative;
    alpha = std::min(2.0 * alpha, kMaxStep);
  }

  if (!bracketed) return result;  // failed to bracket within budget

  // Zoom phase: bisection with a safeguarded quadratic trial point.
  for (int i = result.evaluations; i < kMaxEvaluations; ++i) {
    double trial;
    // Quadratic interpolation using (lo, value_lo, slope_lo) and hi.
    const double dalpha = hi - lo;
    if (slope_lo != 0.0 && std::isfinite(value_lo)) {
      trial = lo - 0.5 * slope_lo * dalpha * dalpha /
                       ((value_lo + slope_lo * dalpha) - value_lo -
                        slope_lo * dalpha + 1e-300);
    } else {
      trial = lo + 0.5 * dalpha;
    }
    // Fall back to bisection when interpolation leaves the interval.
    const double a = std::min(lo, hi);
    const double b = std::max(lo, hi);
    if (!(trial > a + 0.1 * (b - a) && trial < b - 0.1 * (b - a))) {
      trial = 0.5 * (lo + hi);
    }
    const PhiEval phi = EvalPhi(f, theta, direction, trial, &point, &grad);
    ++result.evaluations;
    if (!std::isfinite(phi.value) ||
        phi.value > value0 + kArmijoC1 * trial * slope0 ||
        phi.value >= value_lo) {
      hi = trial;
    } else {
      if (std::fabs(phi.derivative) <= -kWolfeC2 * slope0) {
        result.success = true;
        result.alpha = trial;
        result.value = phi.value;
        result.gradient = std::move(grad);
        return result;
      }
      if (phi.derivative * (hi - lo) >= 0.0) hi = lo;
      lo = trial;
      value_lo = phi.value;
      slope_lo = phi.derivative;
    }
    if (std::fabs(hi - lo) < 1e-14 * std::max(1.0, std::fabs(lo))) break;
  }

  // Accept the best point found if it at least decreases f (pragmatic exit
  // that keeps L-BFGS moving on nearly flat objectives).
  if (value_lo < value0 && lo > 0.0) {
    const PhiEval phi = EvalPhi(f, theta, direction, lo, &point, &grad);
    ++result.evaluations;
    result.success = true;
    result.alpha = lo;
    result.value = phi.value;
    result.gradient = std::move(grad);
  }
  return result;
}

}  // namespace blinkml
