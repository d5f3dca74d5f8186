// Poisson regression with L2 regularization — the fourth GLM the paper
// lists among its supported model classes (Section 1).
//
// Log-linear count model: y | x ~ Poisson(exp(theta^T x)).
//   f_n(theta) = (1/n) sum_i [exp(theta^T x_i) - y_i theta^T x_i]
//                + (beta/2)||theta||^2          (dropping the log y! term)
//   q(theta; x_i, y_i) = (exp(theta^T x_i) - y_i) x_i
//   H = (1/n) X^T diag(exp(theta^T x)) X + beta I   (closed form)
//
// The prediction-difference metric v follows the regression convention
// (Appendix C): RMS difference of predicted *rates* normalized by the
// holdout label standard deviation. Rates (not linear scores) are what a
// downstream consumer of the model reads, so that is what the guarantee
// covers; the score fast path still exists because the rate is a fixed
// monotone function of the linear score.

#ifndef BLINKML_MODELS_POISSON_REGRESSION_H_
#define BLINKML_MODELS_POISSON_REGRESSION_H_

#include "models/glm_spec.h"

namespace blinkml {

/// Per-row arithmetic of Poisson regression (the GlmSpec Link contract),
/// defined next to the one GlmSpec instantiation in the source file.
struct PoissonLink;
extern template class GlmSpec<PoissonLink>;

class PoissonRegressionSpec final : public GlmSpec<PoissonLink> {
 public:
  explicit PoissonRegressionSpec(double l2 = 1e-3) : GlmSpec(l2) {}

  std::string name() const override { return "PoissonRegression"; }
  Task task() const override { return Task::kRegression; }
};

}  // namespace blinkml

#endif  // BLINKML_MODELS_POISSON_REGRESSION_H_
