#include "models/linear_regression.h"

namespace blinkml {

// The residual is the loss root and the gradient coefficient at once.
struct LinearLink {
  static double LossAndCoeff(double m, double y, double* coeff) {
    const double r = m - y;
    *coeff = r;
    return 0.5 * r * r;
  }
  static double Coeff(double m, double y) { return m - y; }
  static double Predict(double m) { return m; }
  static double HessianWeight(double /*m*/) { return 1.0; }
};

template class GlmSpec<LinearLink>;

Result<Matrix> LinearRegressionSpec::ClosedFormHessian(
    const Vector& theta, const Dataset& data) const {
  if (data.num_rows() == 0 || data.is_sparse()) {
    return GlmSpec::ClosedFormHessian(theta, data);
  }
  Matrix h = GramCols(data.dense());
  h *= 1.0 / static_cast<double>(data.num_rows());
  h.AddToDiagonal(l2());
  return h;
}

}  // namespace blinkml
