#include "core/coordinator.h"

#include <memory>
#include <utility>

#include "util/timer.h"

namespace blinkml {

Coordinator::Coordinator(BlinkConfig config) : config_(std::move(config)) {}

Result<ApproxResult> Coordinator::Train(
    const ModelSpec& spec, const Dataset& data,
    const ApproximationContract& contract) const {
  BLINKML_RETURN_NOT_OK(ValidateContract(contract));
  WallTimer total_timer;
  BLINKML_ASSIGN_OR_RETURN(TrainingPrefix prefix,
                           ComputeTrainingPrefix(data, config_));
  TrainingPipeline pipeline(
      spec, data, contract, config_,
      std::make_shared<const TrainingPrefix>(std::move(prefix)));
  BLINKML_ASSIGN_OR_RETURN(ApproxResult out, pipeline.RunAll());
  // The one-shot path charges the prefix (split + D_0) to this run; a
  // session amortizes it instead (ApproxResult::timings then covers only
  // the stages).
  out.timings.total = total_timer.Seconds();
  return out;
}

Result<TrainedModel> Coordinator::TrainFullModel(const ModelSpec& spec,
                                                 const Dataset& data) const {
  BLINKML_ASSIGN_OR_RETURN(TrainingPrefix prefix,
                           ComputeTrainingPrefix(data, config_));
  RuntimeScope runtime_scope(config_.runtime);
  return ModelTrainer(config_.trainer)
      .Train(spec, data.TakeRows(*prefix.pool_rows));
}

}  // namespace blinkml
