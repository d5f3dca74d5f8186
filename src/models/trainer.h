// Model Trainer (paper Figure 2): trains a ModelSpec on a dataset.
//
// Applies the paper's optimizer policy (BFGS for models with fewer than 100
// parameters, L-BFGS otherwise — Section 5.1) unless the caller overrides
// it, and uses the closed-form MLE when the spec provides one (PPCA).

#ifndef BLINKML_MODELS_TRAINER_H_
#define BLINKML_MODELS_TRAINER_H_

#include <optional>

#include "data/dataset.h"
#include "models/model_spec.h"
#include "optim/objective.h"
#include "optim/optimizer.h"
#include "util/status.h"

namespace blinkml {

/// Adapts (spec, dataset) to the optimizer interface.
class ModelObjective final : public DifferentiableObjective {
 public:
  ModelObjective(const ModelSpec& spec, const Dataset& data)
      : spec_(spec), data_(data) {}

  Vector::Index dim() const override { return spec_.ParamDim(data_); }
  double Value(const Vector& theta) const override {
    return spec_.Objective(theta, data_);
  }
  void Gradient(const Vector& theta, Vector* grad) const override {
    spec_.Gradient(theta, data_, grad);
  }
  double ValueAndGradient(const Vector& theta, Vector* grad) const override {
    return spec_.ObjectiveAndGradient(theta, data_, grad);
  }

 private:
  const ModelSpec& spec_;
  const Dataset& data_;
};

/// A trained model: parameters plus training diagnostics.
struct TrainedModel {
  Vector theta;
  double objective = 0.0;       // final f_n(theta)
  int iterations = 0;           // optimizer iterations (0 for closed form)
  bool converged = true;
  double train_seconds = 0.0;
  Dataset::Index sample_size = 0;  // rows trained on
};

struct TrainerOptions {
  OptimizerOptions optimizer;
  /// Force a specific optimizer; unset = the paper's dimension policy.
  std::optional<OptimizerKind> optimizer_kind;
};

class ModelTrainer {
 public:
  explicit ModelTrainer(TrainerOptions options = {})
      : options_(std::move(options)) {}

  /// Trains `spec` on `data`. Fails only on structural errors; an exhausted
  /// iteration budget is reported through TrainedModel::converged.
  /// `warm_start` (paper Section 1 mentions warm starts as the only
  /// incremental option for MLE), if given, is where iterative training
  /// starts instead of spec.InitialTheta; closed-form trainers ignore it.
  Result<TrainedModel> Train(const ModelSpec& spec, const Dataset& data,
                             const Vector* warm_start = nullptr) const;

  const TrainerOptions& options() const { return options_; }

 private:
  TrainerOptions options_;
};

}  // namespace blinkml

#endif  // BLINKML_MODELS_TRAINER_H_
