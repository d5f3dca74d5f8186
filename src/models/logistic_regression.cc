#include "models/logistic_regression.h"

#include <cmath>

namespace blinkml {

struct LogisticLink {
  // The fused form shares one exp between the loss
  // -[y log s + (1-y) log(1-s)] = log(1+e^m) - y * m and the sigmoid.
  static double LossAndCoeff(double m, double y, double* coeff) {
    if (m >= 0.0) {
      const double e = std::exp(-m);  // e in (0, 1]: both branches stable
      *coeff = 1.0 / (1.0 + e) - y;
      return m + std::log1p(e) - y * m;
    }
    const double e = std::exp(m);
    *coeff = e / (1.0 + e) - y;
    return std::log1p(e) - y * m;
  }
  static double Coeff(double m, double y) {
    return LogisticRegressionSpec::Sigmoid(m) - y;
  }
  /// The class label: 1 iff the margin is non-negative.
  static double Predict(double m) { return m >= 0.0 ? 1.0 : 0.0; }
  static double HessianWeight(double m) {
    const double s = LogisticRegressionSpec::Sigmoid(m);
    return s * (1.0 - s);
  }
};

template class GlmSpec<LogisticLink>;

double LogisticRegressionSpec::Sigmoid(double margin) {
  if (margin >= 0.0) {
    const double e = std::exp(-margin);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(margin);
  return e / (1.0 + e);
}

}  // namespace blinkml
