// Optimizer interface and shared configuration.
//
// The paper trains with BFGS for d < 100 and L-BFGS for d >= 100
// (Section 5.1); ModelTrainer (models/trainer.h) applies exactly that
// policy via ChooseOptimizer.

#ifndef BLINKML_OPTIM_OPTIMIZER_H_
#define BLINKML_OPTIM_OPTIMIZER_H_

#include <memory>
#include <string>

#include "linalg/vector.h"
#include "optim/objective.h"
#include "util/status.h"

namespace blinkml {

enum class OptimizerKind { kBfgs, kLbfgs };

const char* OptimizerKindName(OptimizerKind kind);

struct OptimizerOptions {
  /// Stop when the gradient infinity-norm falls below this.
  double gradient_tolerance = 1e-6;
  /// Stop when |f_t - f_{t-1}| <= value_tolerance * max(1, |f_t|).
  double value_tolerance = 1e-10;
  int max_iterations = 200;
  /// L-BFGS history length (ignored by BFGS).
  int lbfgs_memory = 10;
};

struct OptimizeResult {
  Vector theta;            // final iterate
  double value = 0.0;      // f(theta)
  double gradient_norm = 0.0;
  int iterations = 0;      // outer iterations taken
  int evaluations = 0;     // objective/gradient evaluations
  bool converged = false;  // tolerance met (vs. budget exhausted)
};

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Minimizes f from theta0. A Status error is returned only for
  /// structural failures (dimension mismatch, non-finite initial point);
  /// hitting the iteration budget still returns an OptimizeResult with
  /// converged = false.
  virtual Result<OptimizeResult> Minimize(const DifferentiableObjective& f,
                                          const Vector& theta0) const = 0;
};

/// Factory for an optimizer of the given kind.
std::unique_ptr<Optimizer> MakeOptimizer(OptimizerKind kind,
                                         const OptimizerOptions& options = {});

/// The paper's policy: BFGS below `bfgs_dim_limit` parameters, else L-BFGS.
OptimizerKind ChooseOptimizer(Vector::Index param_dim,
                              Vector::Index bfgs_dim_limit = 100);

}  // namespace blinkml

#endif  // BLINKML_OPTIM_OPTIMIZER_H_
