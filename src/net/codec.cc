#include "net/codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "data/generators.h"
#include "models/linear_regression.h"
#include "models/logistic_regression.h"
#include "models/poisson_regression.h"
#include "util/string_util.h"

namespace blinkml {
namespace net {

namespace {

Status ReaderStatus(const WireReader& in) {
  if (!in.ok()) return Status::InvalidArgument("truncated payload");
  return Status::OK();
}

/// The model blob shared by Train, Search and Predict (README "Wire
/// format"): the fixed header, then theta as a u32 count and its
/// IEEE-754 bits. The class name travels outside the blob.
Status EncodeModelBlob(const TrainedModel& model, WireWriter* out) {
  if (model.theta.size() > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument(
        StrFormat("model of %lld parameters exceeds the wire's u32 count",
                  static_cast<long long>(model.theta.size())));
  }
  out->F64(model.objective);
  out->I32(model.iterations);
  out->U8(model.converged ? 1 : 0);
  out->I64(model.sample_size);
  out->U32(static_cast<std::uint32_t>(model.theta.size()));
  out->Doubles(model.theta.data(),
               static_cast<std::size_t>(model.theta.size()));
  return Status::OK();
}

Status DecodeModelBlob(WireReader* in, TrainedModel* model) {
  model->objective = in->F64();
  model->iterations = in->I32();
  model->converged = in->U8() != 0;
  model->sample_size = in->I64();
  const std::uint32_t params = in->U32();
  // Doubles refuses a count the remaining bytes cannot hold before it
  // allocates, so a forged count costs nothing.
  std::vector<double> theta;
  in->Doubles(params, &theta);
  if (!in->ok()) return Status::InvalidArgument("truncated model blob");
  model->theta = Vector(std::move(theta));
  return Status::OK();
}

}  // namespace

void Encode(const ResponseEnvelope& v, WireWriter* out) {
  out->U16(static_cast<std::uint16_t>(v.status));
  out->Str(v.message);
  out->U32(v.retry_after_ms);
}

Status Decode(WireReader* in, ResponseEnvelope* out) {
  out->status = static_cast<WireStatus>(in->U16());
  out->message = in->Str();
  out->retry_after_ms = in->U32();
  return ReaderStatus(*in);
}

BlinkConfig ToBlinkConfig(const WireConfig& wire) {
  BlinkConfig config;
  config.seed = wire.seed;
  config.initial_sample_size = wire.initial_sample_size;
  config.holdout_size = wire.holdout_size;
  config.stats_sample_size = wire.stats_sample_size;
  config.accuracy_samples = wire.accuracy_samples;
  config.size_samples = wire.size_samples;
  return config;
}

namespace {

void Encode(const WireConfig& v, WireWriter* out) {
  out->U64(v.seed);
  out->I64(v.initial_sample_size);
  out->I64(v.holdout_size);
  out->I64(v.stats_sample_size);
  out->I32(v.accuracy_samples);
  out->I32(v.size_samples);
}

void DecodeInto(WireReader* in, WireConfig* out) {
  out->seed = in->U64();
  out->initial_sample_size = in->I64();
  out->holdout_size = in->I64();
  out->stats_sample_size = in->I64();
  out->accuracy_samples = in->I32();
  out->size_samples = in->I32();
}

}  // namespace

namespace {

std::uint64_t SaturatingMul(std::uint64_t a, std::uint64_t b) {
  if (a != 0 && b > std::numeric_limits<std::uint64_t>::max() / a) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a * b;
}

std::uint64_t SaturatingAdd(std::uint64_t a, std::uint64_t b) {
  return b > std::numeric_limits<std::uint64_t>::max() - a
             ? std::numeric_limits<std::uint64_t>::max()
             : a + b;
}

}  // namespace

bool SameRegistration(const RegisterDatasetRequest& a,
                      const RegisterDatasetRequest& b) {
  return a.tenant == b.tenant && a.name == b.name &&
         a.generator == b.generator && a.rows == b.rows && a.dim == b.dim &&
         a.data_seed == b.data_seed &&
         std::memcmp(&a.sparsity, &b.sparsity, sizeof(double)) == 0 &&
         std::memcmp(&a.noise, &b.noise, sizeof(double)) == 0 &&
         a.nnz_per_row == b.nnz_per_row &&
         a.config.seed == b.config.seed &&
         a.config.initial_sample_size == b.config.initial_sample_size &&
         a.config.holdout_size == b.config.holdout_size &&
         a.config.stats_sample_size == b.config.stats_sample_size &&
         a.config.accuracy_samples == b.config.accuracy_samples &&
         a.config.size_samples == b.config.size_samples;
}

std::uint64_t EstimateWireDatasetBytes(const RegisterDatasetRequest& request) {
  if (request.rows <= 0 || request.dim <= 0) return 0;
  const std::uint64_t rows = static_cast<std::uint64_t>(request.rows);
  const std::uint64_t dim = static_cast<std::uint64_t>(request.dim);
  // Priced as Dataset::MemoryBytes counts: the labels, then dense
  // row-major features, or CSR storage (a value + a column index per
  // entry, plus the rows + 1 row pointer).
  const std::uint64_t labels = SaturatingMul(rows, sizeof(double));
  std::uint64_t nnz_per_row;
  if (request.generator == WireGenerator::kCriteoLike) {
    nnz_per_row =
        request.nnz_per_row > 0
            ? std::min(static_cast<std::uint64_t>(request.nnz_per_row), dim)
            : 0;
  } else if (request.generator == WireGenerator::kSyntheticLogistic &&
             request.sparsity > 0.0 && request.sparsity < 1.0) {
    // max(1, llround(sparsity * dim)) entries per row, as the generator
    // samples them.
    const double per_row =
        std::round(request.sparsity * static_cast<double>(dim));
    nnz_per_row = per_row >= static_cast<double>(dim)
                      ? dim
                      : std::max<std::uint64_t>(
                            1, static_cast<std::uint64_t>(per_row));
  } else {
    return SaturatingAdd(
        labels, SaturatingMul(rows, SaturatingMul(dim, sizeof(double))));
  }
  const std::uint64_t entries = SaturatingMul(
      SaturatingMul(rows, nnz_per_row), sizeof(double) + sizeof(std::int64_t));
  return SaturatingAdd(SaturatingAdd(labels, entries),
                       SaturatingMul(rows + 1, sizeof(std::int64_t)));
}

Status ValidateWireConfig(const RegisterDatasetRequest& request,
                          std::uint64_t max_bytes) {
  const WireConfig& c = request.config;
  // The holdout every Train takes (core/pipeline.cc).
  const std::int64_t holdout = std::max<std::int64_t>(
      std::min<std::int64_t>(c.holdout_size, request.rows / 5), 1);
  if (c.initial_sample_size < 1 || holdout < 2 || c.stats_sample_size < 1 ||
      c.accuracy_samples < 1 || c.size_samples < 1) {
    return Status::InvalidArgument(StrFormat(
        "config needs initial_sample_size, stats_sample_size, "
        "accuracy_samples and size_samples >= 1 and a holdout of >= 2 rows, "
        "got %lld, %lld, %d, %d and %lld (holdout_size %lld of %lld rows)",
        static_cast<long long>(c.initial_sample_size),
        static_cast<long long>(c.stats_sample_size), c.accuracy_samples,
        c.size_samples, static_cast<long long>(holdout),
        static_cast<long long>(c.holdout_size),
        static_cast<long long>(request.rows)));
  }
  if (max_bytes == 0) return Status::OK();
  const std::uint64_t score_bytes = SaturatingMul(
      SaturatingMul(2 * static_cast<std::uint64_t>(c.size_samples),
                    static_cast<std::uint64_t>(holdout)),
      sizeof(double));
  if (score_bytes > max_bytes) {
    return Status::InvalidArgument(StrFormat(
        "size_samples %d over a %lld-row holdout retains ~%llu bytes of "
        "scores, over the server's %llu-byte per-dataset cap",
        c.size_samples, static_cast<long long>(holdout),
        static_cast<unsigned long long>(score_bytes),
        static_cast<unsigned long long>(max_bytes)));
  }
  const std::uint64_t v_bytes =
      static_cast<std::uint64_t>(c.accuracy_samples) * sizeof(double);
  if (v_bytes > max_bytes) {
    return Status::InvalidArgument(StrFormat(
        "accuracy_samples %d retains ~%llu bytes of verdicts, over the "
        "server's %llu-byte per-dataset cap",
        c.accuracy_samples, static_cast<unsigned long long>(v_bytes),
        static_cast<unsigned long long>(max_bytes)));
  }
  return Status::OK();
}

Result<Dataset> MakeWireDataset(const RegisterDatasetRequest& request) {
  if (request.rows <= 0 || request.dim <= 0) {
    return Status::InvalidArgument(
        StrFormat("dataset needs positive rows/dim, got %lld x %lld",
                  static_cast<long long>(request.rows),
                  static_cast<long long>(request.dim)));
  }
  switch (request.generator) {
    case WireGenerator::kSyntheticLogistic:
      if (!std::isfinite(request.sparsity) || request.sparsity <= 0.0 ||
          request.sparsity > 1.0) {
        return Status::InvalidArgument("sparsity must be in (0, 1]");
      }
      return MakeSyntheticLogistic(request.rows, request.dim,
                                   request.data_seed, request.sparsity,
                                   request.noise);
    case WireGenerator::kSyntheticLinear:
      return MakeSyntheticLinear(request.rows, request.dim, request.data_seed,
                                 request.noise);
    case WireGenerator::kCriteoLike:
      if (request.nnz_per_row <= 0 || request.nnz_per_row > request.dim) {
        return Status::InvalidArgument("nnz_per_row must be in [1, dim]");
      }
      return MakeCriteoLike(request.rows, request.data_seed, request.dim,
                            request.nnz_per_row);
    case WireGenerator::kGasLike:
      return MakeGasLike(request.rows, request.data_seed, request.dim);
  }
  return Status::InvalidArgument(
      StrFormat("unknown dataset generator %u",
                static_cast<unsigned>(request.generator)));
}

void Encode(const RegisterDatasetRequest& v, WireWriter* out) {
  out->Str(v.tenant);
  out->Str(v.name);
  out->U16(static_cast<std::uint16_t>(v.generator));
  out->I64(v.rows);
  out->I64(v.dim);
  out->U64(v.data_seed);
  out->F64(v.sparsity);
  out->F64(v.noise);
  out->I64(v.nnz_per_row);
  Encode(v.config, out);
}

Status Decode(WireReader* in, RegisterDatasetRequest* out) {
  out->tenant = in->Str();
  out->name = in->Str();
  out->generator = static_cast<WireGenerator>(in->U16());
  out->rows = in->I64();
  out->dim = in->I64();
  out->data_seed = in->U64();
  out->sparsity = in->F64();
  out->noise = in->F64();
  out->nnz_per_row = in->I64();
  DecodeInto(in, &out->config);
  BLINKML_RETURN_NOT_OK(ReaderStatus(*in));
  switch (out->generator) {
    case WireGenerator::kSyntheticLogistic:
    case WireGenerator::kSyntheticLinear:
    case WireGenerator::kCriteoLike:
    case WireGenerator::kGasLike:
      break;
    default:
      return Status::InvalidArgument(
          StrFormat("unknown dataset generator %u",
                    static_cast<unsigned>(out->generator)));
  }
  if (out->name.empty()) {
    return Status::InvalidArgument("dataset name must not be empty");
  }
  return Status::OK();
}

void Encode(const RegisterDatasetResponse& v, WireWriter* out) {
  out->U64(v.dataset_bytes);
}

Status Decode(WireReader* in, RegisterDatasetResponse* out) {
  out->dataset_bytes = in->U64();
  return ReaderStatus(*in);
}

void Encode(const TrainRequestWire& v, WireWriter* out) {
  out->Str(v.tenant);
  out->Str(v.dataset);
  out->Str(v.model_class);
  out->F64(v.l2);
  out->F64(v.epsilon);
  out->F64(v.delta);
  out->U64(v.seed);
}

Status Decode(WireReader* in, TrainRequestWire* out) {
  out->tenant = in->Str();
  out->dataset = in->Str();
  out->model_class = in->Str();
  out->l2 = in->F64();
  out->epsilon = in->F64();
  out->delta = in->F64();
  out->seed = in->U64();
  return ReaderStatus(*in);
}

Status Encode(const TrainResponseWire& v, WireWriter* out) {
  out->Str(v.model_class);
  BLINKML_RETURN_NOT_OK(EncodeModelBlob(v.model, out));
  out->I64(v.sample_size);
  out->I64(v.full_size);
  out->F64(v.initial_epsilon);
  out->F64(v.final_epsilon);
  out->U8(v.used_initial_only ? 1 : 0);
  out->U8(v.contract_satisfied ? 1 : 0);
  out->I32(v.initial_iterations);
  out->I32(v.final_iterations);
  return Status::OK();
}

Status Decode(WireReader* in, TrainResponseWire* out) {
  out->model_class = in->Str();
  BLINKML_RETURN_NOT_OK(DecodeModelBlob(in, &out->model));
  out->sample_size = in->I64();
  out->full_size = in->I64();
  out->initial_epsilon = in->F64();
  out->final_epsilon = in->F64();
  out->used_initial_only = in->U8() != 0;
  out->contract_satisfied = in->U8() != 0;
  out->initial_iterations = in->I32();
  out->final_iterations = in->I32();
  return ReaderStatus(*in);
}

void Encode(const SearchRequestWire& v, WireWriter* out) {
  out->Str(v.tenant);
  out->Str(v.dataset);
  out->Str(v.model_class);
  out->U32(static_cast<std::uint32_t>(v.candidates.size()));
  for (const SearchCandidateWire& c : v.candidates) {
    out->F64(c.l2);
    out->U64(c.seed);
  }
  out->F64(v.epsilon);
  out->F64(v.delta);
  out->U64(v.seed);
}

Status Decode(WireReader* in, SearchRequestWire* out) {
  out->tenant = in->Str();
  out->dataset = in->Str();
  out->model_class = in->Str();
  const std::uint32_t count = in->U32();
  // Each candidate needs 16 payload bytes; the remaining() bound rejects
  // corrupted counts before the reserve can balloon.
  if (count * 16ull > in->remaining()) {
    return Status::InvalidArgument("truncated candidate list");
  }
  out->candidates.resize(count);
  for (SearchCandidateWire& c : out->candidates) {
    c.l2 = in->F64();
    c.seed = in->U64();
  }
  out->epsilon = in->F64();
  out->delta = in->F64();
  out->seed = in->U64();
  BLINKML_RETURN_NOT_OK(ReaderStatus(*in));
  if (out->candidates.empty()) {
    return Status::InvalidArgument("search needs at least one candidate");
  }
  return Status::OK();
}

Status Encode(const SearchResponseWire& v, WireWriter* out) {
  out->I32(v.best_index);
  out->U32(static_cast<std::uint32_t>(v.candidates.size()));
  for (const SearchCandidateResultWire& c : v.candidates) {
    out->U16(static_cast<std::uint16_t>(c.status));
    out->Str(c.message);
    out->F64(c.l2);
    out->F64(c.score);
    out->F64(c.final_epsilon);
    out->I64(c.sample_size);
    if (c.status == WireStatus::kOk) {
      BLINKML_RETURN_NOT_OK(EncodeModelBlob(c.model, out));
    }
  }
  return Status::OK();
}

Status Decode(WireReader* in, SearchResponseWire* out) {
  out->best_index = in->I32();
  const std::uint32_t count = in->U32();
  if (count * 34ull > in->remaining()) {
    return Status::InvalidArgument("truncated candidate results");
  }
  out->candidates.resize(count);
  for (SearchCandidateResultWire& c : out->candidates) {
    c.status = static_cast<WireStatus>(in->U16());
    c.message = in->Str();
    c.l2 = in->F64();
    c.score = in->F64();
    c.final_epsilon = in->F64();
    c.sample_size = in->I64();
    if (c.status == WireStatus::kOk) {
      BLINKML_RETURN_NOT_OK(DecodeModelBlob(in, &c.model));
    }
  }
  return ReaderStatus(*in);
}

Status Encode(const PredictRequestWire& v, WireWriter* out) {
  if (v.rows < 0 || v.dim < 0 ||
      v.features.size() !=
          static_cast<std::size_t>(v.rows) * static_cast<std::size_t>(v.dim)) {
    return Status::InvalidArgument("features must be rows x dim");
  }
  out->Str(v.tenant);
  out->Str(v.model_class);
  BLINKML_RETURN_NOT_OK(EncodeModelBlob(v.model, out));
  out->I64(v.rows);
  out->I64(v.dim);
  out->Doubles(v.features.data(), v.features.size());
  return Status::OK();
}

Status Decode(WireReader* in, PredictRequestWire* out) {
  out->tenant = in->Str();
  out->model_class = in->Str();
  BLINKML_RETURN_NOT_OK(DecodeModelBlob(in, &out->model));
  out->rows = in->I64();
  out->dim = in->I64();
  BLINKML_RETURN_NOT_OK(ReaderStatus(*in));
  if (out->rows <= 0 || out->dim <= 0) {
    return Status::InvalidArgument("predict needs positive rows and dim");
  }
  // rows * dim can wrap for adversarial sizes (each passes the > 0 check
  // up to 2^63); bound it against the bytes actually left in the payload
  // with divisions before forming the product.
  const std::size_t rows = static_cast<std::size_t>(out->rows);
  const std::size_t dim = static_cast<std::size_t>(out->dim);
  if (rows > in->remaining() / sizeof(double) / dim) {
    return Status::InvalidArgument(
        StrFormat("predict features truncated: %lld x %lld doubles do not "
                  "fit in the %llu payload bytes remaining",
                  static_cast<long long>(out->rows),
                  static_cast<long long>(out->dim),
                  static_cast<unsigned long long>(in->remaining())));
  }
  in->Doubles(rows * dim, &out->features);
  return ReaderStatus(*in);
}

void Encode(const PredictResponseWire& v, WireWriter* out) {
  out->U32(static_cast<std::uint32_t>(v.predictions.size()));
  out->Doubles(v.predictions.data(), v.predictions.size());
}

Status Decode(WireReader* in, PredictResponseWire* out) {
  const std::uint32_t count = in->U32();
  in->Doubles(count, &out->predictions);
  return ReaderStatus(*in);
}

void Encode(const StatsRequestWire& v, WireWriter* out) { out->Str(v.tenant); }

Status Decode(WireReader* in, StatsRequestWire* out) {
  out->tenant = in->Str();
  return ReaderStatus(*in);
}

void Encode(const StatsResponseWire& v, WireWriter* out) {
  const ServeStats& m = v.manager;
  out->U64(m.jobs_submitted);
  out->U64(m.jobs_completed);
  out->U64(m.jobs_failed);
  out->U64(m.sessions_created);
  out->U64(m.sessions_evicted);
  out->U64(m.datasets_loaded);
  out->U64(m.datasets_unloaded);
  out->U64(m.resident_bytes);
  out->U64(m.cached_bytes);
  out->I32(m.live_sessions);
  out->I32(m.loaded_datasets);
  out->I32(m.loads_in_progress);
  out->I32(m.queued_jobs);
  out->I32(m.active_jobs);
  const ServerStatsWire& s = v.server;
  out->U64(s.frames_received);
  out->U64(s.responses_sent);
  out->U64(s.jobs_enqueued);
  out->U64(s.rejected_malformed);
  out->U64(s.rejected_version);
  out->U64(s.rejected_unknown_verb);
  out->U64(s.rejected_decode);
  out->U64(s.rejected_deadline);
  out->U64(s.rejected_rate);
  out->U64(s.rejected_quota);
  out->U64(s.rejected_queue_full);
  out->U64(s.rejected_shed);
  out->U64(s.rejected_max_connections);
  out->U64(s.idle_reaped);
  out->U64(s.write_stalls);
  out->I32(s.open_connections);
  out->I32(s.queued_jobs);
}

Status Decode(WireReader* in, StatsResponseWire* out) {
  ServeStats& m = out->manager;
  m.jobs_submitted = in->U64();
  m.jobs_completed = in->U64();
  m.jobs_failed = in->U64();
  m.sessions_created = in->U64();
  m.sessions_evicted = in->U64();
  m.datasets_loaded = in->U64();
  m.datasets_unloaded = in->U64();
  m.resident_bytes = in->U64();
  m.cached_bytes = in->U64();
  m.live_sessions = in->I32();
  m.loaded_datasets = in->I32();
  m.loads_in_progress = in->I32();
  m.queued_jobs = in->I32();
  m.active_jobs = in->I32();
  ServerStatsWire& s = out->server;
  s.frames_received = in->U64();
  s.responses_sent = in->U64();
  s.jobs_enqueued = in->U64();
  s.rejected_malformed = in->U64();
  s.rejected_version = in->U64();
  s.rejected_unknown_verb = in->U64();
  s.rejected_decode = in->U64();
  s.rejected_deadline = in->U64();
  s.rejected_rate = in->U64();
  s.rejected_quota = in->U64();
  s.rejected_queue_full = in->U64();
  s.rejected_shed = in->U64();
  s.rejected_max_connections = in->U64();
  s.idle_reaped = in->U64();
  s.write_stalls = in->U64();
  s.open_connections = in->I32();
  s.queued_jobs = in->I32();
  return ReaderStatus(*in);
}

void Encode(const EvictIdleRequestWire& v, WireWriter* out) {
  out->Str(v.tenant);
}

Status Decode(WireReader* in, EvictIdleRequestWire* out) {
  out->tenant = in->Str();
  return ReaderStatus(*in);
}

void Encode(const EvictIdleResponseWire& v, WireWriter* out) {
  out->I32(v.sessions_evicted);
}

Status Decode(WireReader* in, EvictIdleResponseWire* out) {
  out->sessions_evicted = in->I32();
  return ReaderStatus(*in);
}

void Encode(const MetricsRequestWire& v, WireWriter* out) {
  out->Str(v.tenant);
}

Status Decode(WireReader* in, MetricsRequestWire* out) {
  out->tenant = in->Str();
  return ReaderStatus(*in);
}

void Encode(const MetricsResponseWire& v, WireWriter* out) {
  out->Str(v.text);
}

Status Decode(WireReader* in, MetricsResponseWire* out) {
  out->text = in->Str();
  return ReaderStatus(*in);
}

void Encode(const HealthRequestWire& v, WireWriter* out) {
  out->Str(v.tenant);
}

Status Decode(WireReader* in, HealthRequestWire* out) {
  out->tenant = in->Str();
  return ReaderStatus(*in);
}

void Encode(const HealthResponseWire& v, WireWriter* out) {
  out->U8(v.accepting ? 1 : 0);
  out->U8(v.shedding ? 1 : 0);
  out->I32(v.open_connections);
  out->I32(v.queued_jobs);
  out->U64(v.rejected_shed);
  out->U64(v.idle_reaped);
}

Status Decode(WireReader* in, HealthResponseWire* out) {
  out->accepting = in->U8() != 0;
  out->shedding = in->U8() != 0;
  out->open_connections = in->I32();
  out->queued_jobs = in->I32();
  out->rejected_shed = in->U64();
  out->idle_reaped = in->U64();
  return ReaderStatus(*in);
}

Status PeekTenant(const std::uint8_t* payload, std::size_t size,
                  std::string* tenant) {
  WireReader reader(payload, size);
  *tenant = reader.Str();
  if (!reader.ok()) {
    return Status::InvalidArgument("payload too short for a tenant name");
  }
  return Status::OK();
}

Status PeekRoutingKey(Verb verb, const std::uint8_t* payload,
                      std::size_t size, std::string* tenant,
                      std::string* dataset) {
  WireReader reader(payload, size);
  *tenant = reader.Str();
  dataset->clear();
  switch (verb) {
    case Verb::kRegisterDataset:
    case Verb::kTrain:
    case Verb::kSearch:
      *dataset = reader.Str();
      break;
    default:
      break;  // tenant-only key
  }
  if (!reader.ok()) {
    return Status::InvalidArgument("payload too short for a routing key");
  }
  return Status::OK();
}

Result<std::shared_ptr<ModelSpec>> MakeSpecByName(
    const std::string& model_class, double l2) {
  if (!std::isfinite(l2) || l2 < 0.0) {
    return Status::InvalidArgument(
        StrFormat("l2 must be finite and non-negative, got %g", l2));
  }
  if (model_class == "LogisticRegression") {
    return std::shared_ptr<ModelSpec>(
        std::make_shared<LogisticRegressionSpec>(l2));
  }
  if (model_class == "LinearRegression") {
    return std::shared_ptr<ModelSpec>(
        std::make_shared<LinearRegressionSpec>(l2));
  }
  if (model_class == "PoissonRegression") {
    return std::shared_ptr<ModelSpec>(
        std::make_shared<PoissonRegressionSpec>(l2));
  }
  return Status::InvalidArgument("unknown model class: " + model_class);
}

}  // namespace net
}  // namespace blinkml
