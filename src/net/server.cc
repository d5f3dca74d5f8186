#include "net/server.h"

#include <stdexcept>
#include <utility>

#include "data/dataset.h"
#include "obs/metrics.h"
#include "util/string_util.h"

namespace blinkml {
namespace net {

BlinkServer::BlinkServer(SessionManager* manager, ServerOptions options)
    : manager_(manager),
      options_(std::move(options)),
      quotas_(options_.default_quota),
      front_(options_, this, &manager_->metrics()) {}

BlinkServer::~BlinkServer() { Stop(); }

Admission BlinkServer::Admit(const FrameHeader& /*header*/,
                             const std::string& tenant,
                             const std::uint8_t* /*payload*/,
                             std::size_t size) {
  const std::uint64_t payload_bytes = size;
  const AdmissionDecision decision = quotas_.Admit(tenant, payload_bytes);
  Admission admission;
  admission.status = decision.status;
  admission.message = decision.message;
  if (!decision.admitted()) {
    admission.retry_after_ms = decision.retry_after_ms;
    admission.reason = decision.status == WireStatus::kRateLimited
                           ? Rejection::kRate
                           : Rejection::kQuota;
    return admission;
  }
  // A full queue is an admission-time rejection too: same hint as a byte
  // quota rejection.
  admission.retry_after_ms = options_.default_quota.over_quota_retry_ms;
  admission.release = [this, tenant, payload_bytes] {
    quotas_.Release(tenant, payload_bytes);
  };
  return admission;
}

std::vector<std::uint8_t> BlinkServer::Execute(const FrameHeader& header,
                                               const std::string& /*tenant*/,
                                               const std::uint8_t* payload,
                                               std::size_t size) {
  ResponseEnvelope envelope;
  WireWriter body;
  switch (header.verb) {
    case Verb::kRegisterDataset:
      envelope = RunRegisterDataset(payload, size, &body);
      break;
    case Verb::kTrain:
      envelope = RunTrain(payload, size, &body);
      break;
    case Verb::kSearch:
      envelope = RunSearch(payload, size, &body);
      break;
    case Verb::kPredict:
      envelope = RunPredict(payload, size, &body);
      break;
    case Verb::kStats: {
      StatsResponseWire response;
      response.manager = manager_->stats();
      response.server = front_.stats();
      Encode(response, &body);
      break;
    }
    case Verb::kEvictIdle: {
      EvictIdleResponseWire response;
      response.sessions_evicted = manager_->EvictIdle();
      Encode(response, &body);
      break;
    }
    case Verb::kMetrics: {
      // Sampled gauges refresh at scrape time (same convention as the
      // manager's MetricsText refresh). The manager registry (serve_* /
      // net_* metrics) is followed by the process-global registry
      // (pipeline_*, kernel_*, estimator_*, session_*).
      front_.SampleGauges();
      MetricsResponseWire response;
      response.text =
          manager_->MetricsText() + obs::Registry::Global().TextSnapshot();
      Encode(response, &body);
      break;
    }
    default:
      envelope.status = WireStatus::kUnknownVerb;
      envelope.message = "unknown verb reached execution";
      break;
  }
  return ResponsePayload(envelope,
                         envelope.status == WireStatus::kOk ? &body : nullptr);
}

ResponseEnvelope BlinkServer::RunRegisterDataset(const std::uint8_t* payload,
                                                 std::size_t size,
                                                 WireWriter* body) {
  ResponseEnvelope envelope;
  RegisterDatasetRequest request;
  WireReader reader(payload, size);
  Status status = Decode(&reader, &request);
  if (!status.ok()) {
    envelope.status = WireStatus::kDecodeError;
    envelope.message = status.message();
    return envelope;
  }

  // Serializes registration end to end (rare operation, coarse lock) and
  // makes it idempotent: a retried registration whose first response was
  // lost to a connection fault must converge to the same kOk, not fail
  // with "already registered" — without re-charging the byte quota.
  std::lock_guard<std::mutex> register_lock(register_mu_);
  const auto existing = registered_.find(request.name);
  if (existing != registered_.end()) {
    if (SameRegistration(existing->second.first, request)) {
      RegisterDatasetResponse response;
      response.dataset_bytes = existing->second.second;
      Encode(response, body);
      return envelope;
    }
    envelope.status = WireStatus::kInvalidArgument;
    envelope.message = StrFormat(
        "dataset '%s' is already registered with different parameters",
        request.name.c_str());
    return envelope;
  }

  // Admission BEFORE materialization: rows/dim are arbitrary wire int64s
  // and the enqueue admission only charged the tiny request payload, so
  // the size estimate — not the dataset — is what gets checked against
  // the server cap and the tenant's byte quota. Without this a one-frame
  // request could OOM the server past the quota system.
  status = ValidateWireConfig(request, options_.max_dataset_bytes);
  if (!status.ok()) {
    envelope.status = WireStatusFromStatus(status);
    envelope.message = status.message();
    return envelope;
  }
  const std::uint64_t estimate = EstimateWireDatasetBytes(request);
  if (options_.max_dataset_bytes > 0 &&
      estimate > options_.max_dataset_bytes) {
    envelope.status = WireStatus::kInvalidArgument;
    envelope.message = StrFormat(
        "dataset of ~%llu bytes exceeds the server's %llu-byte "
        "per-dataset cap",
        static_cast<unsigned long long>(estimate),
        static_cast<unsigned long long>(options_.max_dataset_bytes));
    return envelope;
  }
  const AdmissionDecision fit = quotas_.CheckResident(request.tenant, estimate);
  if (!fit.admitted()) {
    front_.NoteRejected(Rejection::kQuota);
    envelope.status = fit.status;
    envelope.message = fit.message;
    envelope.retry_after_ms = fit.retry_after_ms;
    return envelope;
  }

  // Materialize once up front: it validates the generator parameters and
  // sizes the tenant's resident-byte charge honestly (the same
  // MemoryBytes figure the manager's LRU budget uses). The registered
  // factory then regenerates on demand — deterministic given the wire
  // parameters, so a post-eviction reload is bitwise identical.
  Result<Dataset> data = MakeWireDataset(request);
  if (!data.ok()) {
    envelope.status = WireStatusFromStatus(data.status());
    envelope.message = data.status().message();
    return envelope;
  }
  const std::uint64_t bytes = data->MemoryBytes();

  status = manager_->RegisterDataset(
      request.name,
      [request] {
        Result<Dataset> regenerated = MakeWireDataset(request);
        // Parameters were validated at registration; a failure here is a
        // programming error, not tenant input.
        if (!regenerated.ok()) {
          throw std::runtime_error(regenerated.status().message());
        }
        return std::move(*regenerated);
      },
      ToBlinkConfig(request.config));
  if (!status.ok()) {
    envelope.status = WireStatusFromStatus(status);
    envelope.message = status.message();
    return envelope;
  }
  quotas_.ChargeResident(request.tenant, static_cast<std::int64_t>(bytes));
  registered_.emplace(request.name, std::make_pair(request, bytes));

  RegisterDatasetResponse response;
  response.dataset_bytes = bytes;
  Encode(response, body);
  return envelope;
}

ResponseEnvelope BlinkServer::RunTrain(const std::uint8_t* payload,
                                       std::size_t size, WireWriter* body) {
  ResponseEnvelope envelope;
  TrainRequestWire request;
  WireReader reader(payload, size);
  Status status = Decode(&reader, &request);
  if (!status.ok()) {
    envelope.status = WireStatus::kDecodeError;
    envelope.message = status.message();
    return envelope;
  }

  Result<std::shared_ptr<ModelSpec>> spec =
      MakeSpecByName(request.model_class, request.l2);
  if (!spec.ok()) {
    envelope.status = WireStatusFromStatus(spec.status());
    envelope.message = spec.status().message();
    return envelope;
  }

  TrainRequest train;
  train.dataset = request.dataset;
  train.spec = *spec;
  train.contract.epsilon = request.epsilon;
  train.contract.delta = request.delta;
  train.seed = request.seed;
  Result<ApproxResult> result = manager_->Train(train);
  if (!result.ok()) {
    envelope.status = WireStatusFromStatus(result.status());
    envelope.message = result.status().message();
    return envelope;
  }

  TrainResponseWire response;
  response.model_class = request.model_class;
  response.model = result->model;
  response.sample_size = result->sample_size;
  response.full_size = result->full_size;
  response.initial_epsilon = result->initial_epsilon;
  response.final_epsilon = result->final_epsilon;
  response.used_initial_only = result->used_initial_only;
  response.contract_satisfied = result->contract_satisfied;
  response.initial_iterations = result->initial_iterations;
  response.final_iterations = result->final_iterations;
  status = Encode(response, body);
  if (!status.ok()) {
    envelope.status = WireStatus::kInternal;
    envelope.message = status.message();
  }
  return envelope;
}

ResponseEnvelope BlinkServer::RunSearch(const std::uint8_t* payload,
                                        std::size_t size, WireWriter* body) {
  ResponseEnvelope envelope;
  SearchRequestWire request;
  WireReader reader(payload, size);
  Status status = Decode(&reader, &request);
  if (!status.ok()) {
    envelope.status = WireStatus::kDecodeError;
    envelope.message = status.message();
    return envelope;
  }

  // Validate the class before starting the job.
  Result<std::shared_ptr<ModelSpec>> probe =
      MakeSpecByName(request.model_class, 1e-3);
  if (!probe.ok()) {
    envelope.status = WireStatusFromStatus(probe.status());
    envelope.message = probe.status().message();
    return envelope;
  }

  SearchRequest search;
  search.dataset = request.dataset;
  search.factory = [model_class = request.model_class](const Candidate& c) {
    Result<std::shared_ptr<ModelSpec>> spec =
        MakeSpecByName(model_class, c.l2);
    return spec.ok() ? *spec : nullptr;
  };
  search.candidates.reserve(request.candidates.size());
  for (const SearchCandidateWire& candidate : request.candidates) {
    Candidate c;
    c.l2 = candidate.l2;
    c.seed = candidate.seed;
    search.candidates.push_back(std::move(c));
  }
  search.options.contract.epsilon = request.epsilon;
  search.options.contract.delta = request.delta;
  search.seed = request.seed;
  Result<SearchOutcome> outcome = manager_->Search(search);
  if (!outcome.ok()) {
    envelope.status = WireStatusFromStatus(outcome.status());
    envelope.message = outcome.status().message();
    return envelope;
  }

  SearchResponseWire response;
  response.best_index = outcome->best_index;
  response.candidates.reserve(outcome->candidates.size());
  for (const CandidateResult& cr : outcome->candidates) {
    SearchCandidateResultWire wire;
    wire.l2 = cr.candidate.l2;
    if (!cr.status.ok()) {
      wire.status = WireStatusFromStatus(cr.status);
      wire.message = cr.status.message();
    } else if (cr.skipped) {
      // No model was trained; kInfeasible keeps "model present iff kOk".
      wire.status = WireStatus::kInfeasible;
      wire.message = "skipped (search budget)";
    } else {
      wire.score = cr.score;
      wire.final_epsilon = cr.result.final_epsilon;
      wire.sample_size = cr.result.sample_size;
      wire.model = cr.result.model;
    }
    response.candidates.push_back(std::move(wire));
  }
  status = Encode(response, body);
  if (!status.ok()) {
    envelope.status = WireStatus::kInternal;
    envelope.message = status.message();
  }
  return envelope;
}

ResponseEnvelope BlinkServer::RunPredict(const std::uint8_t* payload,
                                         std::size_t size, WireWriter* body) {
  ResponseEnvelope envelope;
  PredictRequestWire request;
  WireReader reader(payload, size);
  Status status = Decode(&reader, &request);
  if (!status.ok()) {
    envelope.status = WireStatus::kDecodeError;
    envelope.message = status.message();
    return envelope;
  }

  Result<std::shared_ptr<ModelSpec>> spec =
      MakeSpecByName(request.model_class, 1e-3);
  if (!spec.ok()) {
    envelope.status = WireStatusFromStatus(spec.status());
    envelope.message = spec.status().message();
    return envelope;
  }

  // The decoded features become the matrix Predict reads: one copy out
  // of the payload, none after it. Zero labels satisfy every task's label
  // validation and Predict never reads them.
  const Dataset data(
      Matrix(request.rows, request.dim, std::move(request.features)),
      Vector(request.rows), (*spec)->task());

  if ((*spec)->ParamDim(data) != request.model.theta.size()) {
    envelope.status = WireStatus::kInvalidArgument;
    envelope.message = StrFormat(
        "model has %lld parameters but %s over %lld features needs %lld",
        static_cast<long long>(request.model.theta.size()),
        request.model_class.c_str(), static_cast<long long>(request.dim),
        static_cast<long long>((*spec)->ParamDim(data)));
    return envelope;
  }

  // Stateless and cheap relative to training. On a runner its parallel
  // regions land on the runtime pool; inline on the IO thread they run
  // serially, in the same chunks.
  PredictResponseWire response;
  Vector predictions;
  (*spec)->Predict(request.model.theta, data, &predictions);
  response.predictions.assign(predictions.data(),
                              predictions.data() + predictions.size());
  Encode(response, body);
  return envelope;
}

}  // namespace net
}  // namespace blinkml
