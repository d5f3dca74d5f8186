#include "models/serialization.h"

#include <fstream>

#include "util/string_util.h"

namespace blinkml {

namespace {
constexpr const char kMagic[] = "blinkml-model";
constexpr int kVersion = 1;
}  // namespace

Status SaveModel(const std::string& path, const std::string& model_class,
                 const TrainedModel& model, double epsilon, double delta) {
  if (model_class.empty() ||
      model_class.find_first_of(" \t\n") != std::string::npos) {
    return Status::InvalidArgument("model class must be a single token");
  }
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out.precision(17);
  out << kMagic << " " << kVersion << "\n";
  out << "class " << model_class << "\n";
  out << "params " << model.theta.size() << "\n";
  out << "objective " << model.objective << "\n";
  out << "iterations " << model.iterations << "\n";
  out << "converged " << (model.converged ? 1 : 0) << "\n";
  out << "sample_size " << model.sample_size << "\n";
  out << "epsilon " << epsilon << "\n";
  out << "delta " << delta << "\n";
  out << "theta\n";
  for (Vector::Index i = 0; i < model.theta.size(); ++i) {
    out << model.theta[i] << "\n";
  }
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

Result<SavedModel> LoadModel(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kMagic) {
    return Status::InvalidArgument(path + " is not a BlinkML model");
  }
  if (version != kVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported model version %d", version));
  }
  SavedModel out;
  Vector::Index params = -1;
  std::string key;
  while (in >> key) {
    if (key == "theta") break;
    if (key == "class") {
      in >> out.model_class;
    } else if (key == "params") {
      in >> params;
    } else if (key == "objective") {
      in >> out.model.objective;
    } else if (key == "iterations") {
      in >> out.model.iterations;
    } else if (key == "converged") {
      int flag = 0;
      in >> flag;
      out.model.converged = flag != 0;
    } else if (key == "sample_size") {
      in >> out.model.sample_size;
    } else if (key == "epsilon") {
      in >> out.epsilon;
    } else if (key == "delta") {
      in >> out.delta;
    } else {
      // Unknown keys are skipped with their value (forward compatibility).
      std::string value;
      in >> value;
    }
    if (!in) {
      return Status::InvalidArgument("malformed header in " + path);
    }
  }
  if (key != "theta") {
    return Status::InvalidArgument("missing theta section in " + path);
  }
  if (params < 0) {
    return Status::InvalidArgument("missing params count in " + path);
  }
  out.model.theta.Resize(params);
  for (Vector::Index i = 0; i < params; ++i) {
    if (!(in >> out.model.theta[i])) {
      return Status::InvalidArgument(
          StrFormat("model truncated at parameter %lld in %s",
                    static_cast<long long>(i), path.c_str()));
    }
  }
  return out;
}

}  // namespace blinkml
