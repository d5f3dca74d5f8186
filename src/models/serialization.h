// Model persistence: save/load trained parameters with metadata, so a
// model trained under a contract can be shipped to a serving process.
//
// Format: a small self-describing text header (magic, version, model class
// name, parameter count, training metadata) followed by one parameter per
// line at full precision. Text keeps the files diffable and portable; the
// parameter vectors involved are small (<= a few hundred thousand doubles).
// Finite parameters render with 17 significant digits and so round-trip
// bitwise. This is a file format only: the wire (net/codec.h) ships models
// as IEEE-754 bits.

#ifndef BLINKML_MODELS_SERIALIZATION_H_
#define BLINKML_MODELS_SERIALIZATION_H_

#include <string>

#include "models/trainer.h"
#include "util/status.h"

namespace blinkml {

/// A deserialized model file.
struct SavedModel {
  std::string model_class;     // spec name() at save time
  TrainedModel model;
  double epsilon = -1.0;       // contract bound (-1 = none recorded)
  double delta = -1.0;
};

/// Writes `model` to `path` in the model-file format. `model_class`
/// should be spec.name(); epsilon/delta record the contract the model was
/// trained under (negatives = none). Fails on a model class that is not a
/// single token.
Status SaveModel(const std::string& path, const std::string& model_class,
                 const TrainedModel& model, double epsilon = -1.0,
                 double delta = -1.0);

/// Reads a model file; fails with IOError / InvalidArgument on missing or
/// malformed input.
Result<SavedModel> LoadModel(const std::string& path);

}  // namespace blinkml

#endif  // BLINKML_MODELS_SERIALIZATION_H_
