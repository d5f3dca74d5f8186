// Payload codecs for the wire protocol verbs (net/protocol.h).
//
// Each verb has a request/response struct pair with Encode/Decode
// functions over WireWriter/WireReader. Conventions:
//  * every request payload begins with the tenant name (the admission-
//    control key, net/quotas.h);
//  * every response payload begins with a ResponseEnvelope (wire status,
//    message, retry-after hint); the verb body follows only when the
//    status is kOk;
//  * every double — model parameters and training diagnostics, features,
//    predictions — travels as its IEEE-754 bit pattern (WireWriter::F64 /
//    Doubles), so a served model or prediction is bit-identical to the
//    in-process one, non-finite values included;
//  * Train, Search and Predict carry models in one binary blob (objective,
//    iterations, converged, sample_size, then theta as a u32 count and
//    its doubles); the class name, where a message needs it, is a
//    separate string field before the blob.
//
// Decode functions fail with InvalidArgument on truncated payloads or
// out-of-range enums, and check every count against the bytes left before
// allocating for it; the server answers such failures with a kDecodeError
// frame and keeps the connection alive.

#ifndef BLINKML_NET_CODEC_H_
#define BLINKML_NET_CODEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "models/model_spec.h"
#include "models/trainer.h"
#include "net/protocol.h"
#include "serve/session_manager.h"
#include "util/status.h"

namespace blinkml {
namespace net {

/// Status envelope leading every response payload.
struct ResponseEnvelope {
  WireStatus status = WireStatus::kOk;
  std::string message;
  /// For kRateLimited / kOverQuota / kQueueFull: when to retry (0 = no
  /// hint).
  std::uint32_t retry_after_ms = 0;
};

void Encode(const ResponseEnvelope& envelope, WireWriter* out);
Status Decode(WireReader* in, ResponseEnvelope* out);

/// The BlinkConfig subset a tenant may set over the wire (everything else
/// keeps the server's defaults).
struct WireConfig {
  std::uint64_t seed = 42;
  std::int64_t initial_sample_size = 10000;
  std::int64_t holdout_size = 2000;
  std::int64_t stats_sample_size = 1024;
  std::int32_t accuracy_samples = 512;
  std::int32_t size_samples = 256;
};

BlinkConfig ToBlinkConfig(const WireConfig& wire);

/// Deterministic synthetic sources a remote tenant can register (the
/// wire cannot ship a DatasetFactory closure; it ships the generator's
/// parameters instead, and the server rebuilds the factory — reloads
/// after an eviction regenerate bitwise-identical data).
enum class WireGenerator : std::uint16_t {
  kSyntheticLogistic = 1,  // uses sparsity + noise
  kSyntheticLinear = 2,    // uses noise
  kCriteoLike = 3,         // uses nnz_per_row
  kGasLike = 4,
};

struct RegisterDatasetRequest {
  std::string tenant;
  std::string name;
  WireGenerator generator = WireGenerator::kSyntheticLogistic;
  std::int64_t rows = 0;
  std::int64_t dim = 0;
  std::uint64_t data_seed = 1;
  double sparsity = 1.0;
  double noise = 0.1;
  std::int64_t nnz_per_row = 39;
  WireConfig config;
};

/// The idempotent re-registration rule of both serving fronts: field-wise
/// equality, doubles compared bitwise (a request comes off the wire as bit
/// patterns, so an identical retry is bit-identical).
bool SameRegistration(const RegisterDatasetRequest& a,
                      const RegisterDatasetRequest& b);

struct RegisterDatasetResponse {
  /// Dataset::MemoryBytes of the registered data; charged against the
  /// tenant's resident-byte quota (net/quotas.h).
  std::uint64_t dataset_bytes = 0;
};

/// Builds the registered generator's factory output once (the server
/// calls this to size the quota charge and at every lazy reload).
Result<Dataset> MakeWireDataset(const RegisterDatasetRequest& request);

/// Size estimate of the dataset MakeWireDataset would build — the
/// Dataset::MemoryBytes formula (dense, or CSR for the sparse generators)
/// evaluated on the wire parameters alone (saturating arithmetic, no
/// allocation). Exact except for Criteo-like rows, whose rare in-row
/// duplicate draws make the real dataset slightly smaller.
/// Admission control checks this BEFORE the server materializes anything
/// a tenant asked for: rows/dim are arbitrary wire int64s, and the tiny
/// request payload must not be able to trigger an unbounded server-side
/// allocation. 0 for non-positive rows/dim (MakeWireDataset rejects
/// those itself).
std::uint64_t EstimateWireDatasetBytes(const RegisterDatasetRequest& request);

/// Checks the Monte-Carlo config a registration forwards to every Train on
/// its dataset, before anything is materialized: the rule every Train
/// applies (ValidateTrainingConfig, core/pipeline.h), plus a
/// stats_sample_size of at least 1. The size search retains
/// 2 x size_samples holdout score vectors of that many doubles (one score
/// column: every wire generator trains a single-output model), and the
/// accuracy estimate one double per draw; each must fit `max_bytes`
/// (0 = no cap).
Status ValidateWireConfig(const RegisterDatasetRequest& request,
                          std::uint64_t max_bytes);

struct TrainRequestWire {
  std::string tenant;
  std::string dataset;
  std::string model_class;  // MakeSpecByName
  double l2 = 1e-3;
  double epsilon = 0.05;
  double delta = 0.05;
  /// 0 = the dataset's configured seed (TrainRequest::seed semantics).
  std::uint64_t seed = 0;
};

struct TrainResponseWire {
  std::string model_class;
  TrainedModel model;
  std::int64_t sample_size = 0;
  std::int64_t full_size = 0;
  double initial_epsilon = 0.0;
  double final_epsilon = 0.0;
  bool used_initial_only = false;
  bool contract_satisfied = false;
  std::int32_t initial_iterations = 0;
  std::int32_t final_iterations = 0;
};

struct SearchCandidateWire {
  double l2 = 1e-3;
  std::uint64_t seed = 0;  // 0 = the session seed
};

struct SearchRequestWire {
  std::string tenant;
  std::string dataset;
  std::string model_class;
  std::vector<SearchCandidateWire> candidates;
  double epsilon = 0.05;
  double delta = 0.05;
  std::uint64_t seed = 0;
};

struct SearchCandidateResultWire {
  WireStatus status = WireStatus::kOk;
  std::string message;
  double l2 = 0.0;
  double score = 0.0;
  double final_epsilon = 0.0;
  std::int64_t sample_size = 0;
  /// Valid iff status == kOk.
  TrainedModel model;
};

struct SearchResponseWire {
  std::int32_t best_index = -1;
  std::vector<SearchCandidateResultWire> candidates;
};

struct PredictRequestWire {
  std::string tenant;
  std::string model_class;
  /// Only theta is used; ships a Train response's model straight back.
  TrainedModel model;
  std::int64_t rows = 0;
  std::int64_t dim = 0;
  /// Dense row-major rows x dim features.
  std::vector<double> features;
};

struct PredictResponseWire {
  std::vector<double> predictions;
};

struct StatsRequestWire {
  std::string tenant;
};

/// Server-side counters reported next to the SessionManager snapshot.
struct ServerStatsWire {
  std::uint64_t frames_received = 0;
  std::uint64_t responses_sent = 0;
  std::uint64_t jobs_enqueued = 0;
  std::uint64_t rejected_malformed = 0;
  std::uint64_t rejected_version = 0;
  std::uint64_t rejected_unknown_verb = 0;
  std::uint64_t rejected_decode = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_rate = 0;
  std::uint64_t rejected_quota = 0;
  std::uint64_t rejected_queue_full = 0;
  /// Load shed before enqueue (queue depth over the high-water mark).
  std::uint64_t rejected_shed = 0;
  /// Connections turned away at accept (max_connections cap).
  std::uint64_t rejected_max_connections = 0;
  /// Connections reaped by the idle deadline.
  std::uint64_t idle_reaped = 0;
  /// Responses abandoned because the peer stopped draining its socket
  /// for the write-stall timeout.
  std::uint64_t write_stalls = 0;
  std::int32_t open_connections = 0;
  std::int32_t queued_jobs = 0;
};

struct StatsResponseWire {
  ServeStats manager;
  ServerStatsWire server;
};

struct EvictIdleRequestWire {
  std::string tenant;
};

struct EvictIdleResponseWire {
  std::int32_t sessions_evicted = 0;
};

struct MetricsRequestWire {
  std::string tenant;
};

/// Text snapshot of the server's metrics registries (obs/metrics.h
/// TextSnapshot format: one `name{labels} value` line per metric).
struct MetricsResponseWire {
  std::string text;
};

struct HealthRequestWire {
  std::string tenant;
};

/// Shed/drain state, answered inline on the IO thread (no quota charge,
/// no queue hop) so probes keep working while the server is overloaded.
struct HealthResponseWire {
  /// False once Stop() began: the server is draining admitted jobs and
  /// will not accept new work.
  bool accepting = true;
  /// True while the queue depth sits at/above the shed high-water mark
  /// (new work is being rejected with kOverloaded + retry-after).
  bool shedding = false;
  std::int32_t open_connections = 0;
  std::int32_t queued_jobs = 0;
  /// Totals mirrored from ServerStatsWire, cheap enough for a probe.
  std::uint64_t rejected_shed = 0;
  std::uint64_t idle_reaped = 0;
};

void Encode(const RegisterDatasetRequest& v, WireWriter* out);
Status Decode(WireReader* in, RegisterDatasetRequest* out);
void Encode(const RegisterDatasetResponse& v, WireWriter* out);
Status Decode(WireReader* in, RegisterDatasetResponse* out);

void Encode(const TrainRequestWire& v, WireWriter* out);
Status Decode(WireReader* in, TrainRequestWire* out);
Status Encode(const TrainResponseWire& v, WireWriter* out);
Status Decode(WireReader* in, TrainResponseWire* out);

void Encode(const SearchRequestWire& v, WireWriter* out);
Status Decode(WireReader* in, SearchRequestWire* out);
Status Encode(const SearchResponseWire& v, WireWriter* out);
Status Decode(WireReader* in, SearchResponseWire* out);

Status Encode(const PredictRequestWire& v, WireWriter* out);
Status Decode(WireReader* in, PredictRequestWire* out);
void Encode(const PredictResponseWire& v, WireWriter* out);
Status Decode(WireReader* in, PredictResponseWire* out);

void Encode(const StatsRequestWire& v, WireWriter* out);
Status Decode(WireReader* in, StatsRequestWire* out);
void Encode(const StatsResponseWire& v, WireWriter* out);
Status Decode(WireReader* in, StatsResponseWire* out);

void Encode(const EvictIdleRequestWire& v, WireWriter* out);
Status Decode(WireReader* in, EvictIdleRequestWire* out);
void Encode(const EvictIdleResponseWire& v, WireWriter* out);
Status Decode(WireReader* in, EvictIdleResponseWire* out);

void Encode(const MetricsRequestWire& v, WireWriter* out);
Status Decode(WireReader* in, MetricsRequestWire* out);
void Encode(const MetricsResponseWire& v, WireWriter* out);
Status Decode(WireReader* in, MetricsResponseWire* out);

void Encode(const HealthRequestWire& v, WireWriter* out);
Status Decode(WireReader* in, HealthRequestWire* out);
void Encode(const HealthResponseWire& v, WireWriter* out);
Status Decode(WireReader* in, HealthResponseWire* out);

/// Reads the tenant name (the leading field of every request payload)
/// without consuming the rest — what admission control needs before the
/// runner decodes the body.
Status PeekTenant(const std::uint8_t* payload, std::size_t size,
                  std::string* tenant);

/// Reads the (tenant, dataset) routing key of a shard-routed verb without
/// decoding the body: RegisterDataset/Train/Search lead with two strings
/// (tenant, dataset-or-name). Predict and the aggregate verbs carry no
/// dataset; they peek an empty `dataset` (a tenant-only routing key).
/// What a shard router (shard/router.h) needs before picking an owner.
Status PeekRoutingKey(Verb verb, const std::uint8_t* payload,
                      std::size_t size, std::string* tenant,
                      std::string* dataset);

/// Builds a model spec from its wire name ("LogisticRegression",
/// "LinearRegression", "PoissonRegression" — the spec name() strings).
/// InvalidArgument for an unknown class or an l2 that is negative or not
/// finite.
Result<std::shared_ptr<ModelSpec>> MakeSpecByName(
    const std::string& model_class, double l2);

}  // namespace net
}  // namespace blinkml

#endif  // BLINKML_NET_CODEC_H_
