// Linear regression with L2 regularization (paper model "Lin").
//
// Gaussian MLE with unit noise variance:
//   f_n(theta) = (1/n) sum_i 0.5 (theta^T x_i - y_i)^2 + (beta/2)||theta||^2
//   q(theta; x_i, y_i) = (theta^T x_i - y_i) x_i
//   H = (1/n) X^T X + beta I   (closed form available)
//
// The prediction-difference metric v (Appendix C) is the RMS prediction
// difference normalized by the holdout label standard deviation, so that
// (1 - v) reads as an accuracy free of the labels' units.

#ifndef BLINKML_MODELS_LINEAR_REGRESSION_H_
#define BLINKML_MODELS_LINEAR_REGRESSION_H_

#include "models/glm_spec.h"

namespace blinkml {

/// Per-row arithmetic of linear regression (the GlmSpec Link contract),
/// defined next to the one GlmSpec instantiation in the source file.
struct LinearLink;
extern template class GlmSpec<LinearLink>;

class LinearRegressionSpec final : public GlmSpec<LinearLink> {
 public:
  /// `l2` is the paper's beta (default 1e-3, the paper's setting).
  explicit LinearRegressionSpec(double l2 = 1e-3) : GlmSpec(l2) {}

  std::string name() const override { return "LinearRegression"; }
  Task task() const override { return Task::kRegression; }

  /// X^T X does not depend on theta: dense rows take the blocked GramCols
  /// kernel; sparse rows take the weighted accumulation with unit weights.
  Result<Matrix> ClosedFormHessian(const Vector& theta,
                                   const Dataset& data) const override;
};

}  // namespace blinkml

#endif  // BLINKML_MODELS_LINEAR_REGRESSION_H_
