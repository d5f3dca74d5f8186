// Line searches for descent-direction optimizers.
//
// StrongWolfeSearch is the standard bracketing/zoom procedure; it is what
// BFGS/L-BFGS require for their curvature conditions to hold, keeping the
// inverse-Hessian approximation positive definite.

#ifndef BLINKML_OPTIM_LINE_SEARCH_H_
#define BLINKML_OPTIM_LINE_SEARCH_H_

#include "linalg/vector.h"
#include "optim/objective.h"

namespace blinkml {

/// Outcome of a line search along theta + alpha * direction.
struct LineSearchResult {
  bool success = false;
  double alpha = 0.0;      // accepted step length
  double value = 0.0;      // f at the accepted point
  Vector gradient;         // grad f at the accepted point
  int evaluations = 0;     // number of f/grad evaluations used
};

/// The strong Wolfe conditions an accepted step satisfies: sufficient
/// decrease f(a) <= f(0) + c1 a f'(0) and curvature |f'(a)| <= -c2 f'(0)
/// (c2 = 0.9, the usual choice for quasi-Newton directions).
inline constexpr double kArmijoC1 = 1e-4;
inline constexpr double kWolfeC2 = 0.9;

/// Strong Wolfe search (bracket + zoom on a safeguarded quadratic trial
/// point), starting from a unit step.
LineSearchResult StrongWolfeSearch(const DifferentiableObjective& f,
                                   const Vector& theta, double value0,
                                   const Vector& grad0,
                                   const Vector& direction);

}  // namespace blinkml

#endif  // BLINKML_OPTIM_LINE_SEARCH_H_
