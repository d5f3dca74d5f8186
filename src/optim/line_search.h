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

struct LineSearchOptions {
  double armijo_c1 = 1e-4;     // sufficient-decrease constant
  double wolfe_c2 = 0.9;       // curvature constant (0.9: quasi-Newton)
  double initial_step = 1.0;
  double max_step = 1e6;
  int max_evaluations = 40;
};

/// Strong Wolfe search (bracket + zoom with cubic interpolation).
LineSearchResult StrongWolfeSearch(const DifferentiableObjective& f,
                                   const Vector& theta, double value0,
                                   const Vector& grad0,
                                   const Vector& direction,
                                   const LineSearchOptions& options = {});

}  // namespace blinkml

#endif  // BLINKML_OPTIM_LINE_SEARCH_H_
