// Binary logistic regression with L2 regularization (paper model "LR").
//
//   f_n(theta) = -(1/n) sum_i [t_i log s_i + (1-t_i) log(1-s_i)]
//                + (beta/2)||theta||^2,   s_i = sigmoid(theta^T x_i)
//   q(theta; x_i, t_i) = (s_i - t_i) x_i
//   H = (1/n) X^T diag(s(1-s)) X + beta I   (closed form, paper Sec. 3.4)

#ifndef BLINKML_MODELS_LOGISTIC_REGRESSION_H_
#define BLINKML_MODELS_LOGISTIC_REGRESSION_H_

#include "models/glm_spec.h"

namespace blinkml {

/// Per-row arithmetic of logistic regression (the GlmSpec Link contract),
/// defined next to the one GlmSpec instantiation in the source file.
struct LogisticLink;
extern template class GlmSpec<LogisticLink>;

// Not final: test/serving harnesses derive to intercept hooks such as
// InitialTheta (e.g. tests/serve_test.cc gates a job mid-training).
class LogisticRegressionSpec : public GlmSpec<LogisticLink> {
 public:
  explicit LogisticRegressionSpec(double l2 = 1e-3) : GlmSpec(l2) {}

  std::string name() const override { return "LogisticRegression"; }
  Task task() const override { return Task::kBinary; }

  /// Predicted probability of class 1 for one margin value.
  static double Sigmoid(double margin);
};

}  // namespace blinkml

#endif  // BLINKML_MODELS_LOGISTIC_REGRESSION_H_
