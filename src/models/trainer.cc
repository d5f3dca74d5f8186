#include "models/trainer.h"

#include "util/timer.h"

namespace blinkml {

Result<TrainedModel> ModelTrainer::Train(const ModelSpec& spec,
                                         const Dataset& data,
                                         const Vector* warm_start) const {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("cannot train on an empty dataset");
  }
  WallTimer timer;
  TrainedModel out;
  out.sample_size = data.num_rows();

  if (spec.has_closed_form_trainer()) {
    BLINKML_ASSIGN_OR_RETURN(out.theta, spec.TrainClosedForm(data));
    out.objective = spec.Objective(out.theta, data);
    out.iterations = 0;
    out.converged = true;
    out.train_seconds = timer.Seconds();
    return out;
  }

  const ModelObjective objective(spec, data);
  const OptimizerKind kind = options_.optimizer_kind.has_value()
                                 ? *options_.optimizer_kind
                                 : ChooseOptimizer(objective.dim());
  const auto optimizer = MakeOptimizer(kind, options_.optimizer);
  const Vector theta0 = warm_start ? *warm_start : spec.InitialTheta(data);
  BLINKML_ASSIGN_OR_RETURN(OptimizeResult opt,
                           optimizer->Minimize(objective, theta0));
  out.theta = std::move(opt.theta);
  out.objective = opt.value;
  out.iterations = opt.iterations;
  out.converged = opt.converged;
  out.train_seconds = timer.Seconds();
  return out;
}

}  // namespace blinkml
