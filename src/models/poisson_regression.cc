#include "models/poisson_regression.h"

#include <algorithm>
#include <cmath>

namespace blinkml {

namespace {

// exp with the argument clamped so a transient optimizer step into an
// extreme region degrades gracefully instead of overflowing to inf (the
// objective stays finite and the line search backtracks out).
double SafeExp(double z) { return std::exp(std::min(z, 500.0)); }

}  // namespace

struct PoissonLink {
  // The fused form pays SafeExp once for loss and coefficient.
  static double LossAndCoeff(double m, double y, double* coeff) {
    const double rate = SafeExp(m);
    *coeff = rate - y;
    return rate - y * m;
  }
  static double Coeff(double m, double y) { return SafeExp(m) - y; }
  /// The predicted rate exp(m).
  static double Predict(double m) { return SafeExp(m); }
  static double HessianWeight(double m) { return SafeExp(m); }
};

template class GlmSpec<PoissonLink>;

}  // namespace blinkml
