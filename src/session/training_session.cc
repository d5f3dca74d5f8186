#include "session/training_session.h"

#include <utility>

#include "obs/trace.h"

namespace blinkml {

TrainingSession::TrainingSession(Dataset data, BlinkConfig config)
    : TrainingSession(std::make_shared<const Dataset>(std::move(data)),
                      std::move(config)) {}

TrainingSession::TrainingSession(std::shared_ptr<const Dataset> data,
                                 BlinkConfig config)
    : data_(std::move(data)), config_(std::move(config)) {
  // Feature Grams are stats_sample_size^2 doubles each (8 MB at the
  // default 1024); a handful covers a search's keys, and LRU eviction
  // keeps a long-lived service bounded when candidates spread over many
  // final sample sizes.
  gram_cache_.set_max_cached_bytes(256ull << 20);
}

Result<ApproxResult> TrainingSession::Train(
    const ModelSpec& spec, const ApproximationContract& contract) {
  return Train(spec, contract, config_.seed);
}

Result<ApproxResult> TrainingSession::Train(
    const ModelSpec& spec, const ApproximationContract& contract,
    std::uint64_t seed) {
  BLINKML_ASSIGN_OR_RETURN(std::unique_ptr<TrainingPipeline> pipeline,
                           MakePipeline(spec, contract, seed));
  BLINKML_ASSIGN_OR_RETURN(ApproxResult out, pipeline->RunAll());
  RecordRun(out.timings);
  return out;
}

Result<std::unique_ptr<TrainingPipeline>> TrainingSession::MakePipeline(
    const ModelSpec& spec, const ApproximationContract& contract,
    std::uint64_t seed) {
  BLINKML_RETURN_NOT_OK(ValidateContract(contract));
  const BlinkConfig& config = ConfigForSeed(seed);
  BLINKML_ASSIGN_OR_RETURN(std::shared_ptr<const TrainingPrefix> prefix,
                           PrefixFor(seed));
  return std::make_unique<TrainingPipeline>(spec, *data_, contract, config,
                                            std::move(prefix), &gram_cache_);
}

void TrainingSession::RecordRun(const PhaseTimings& timings) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.run_timings += timings;
  ++stats_.runs;
}

std::uint64_t TrainingSession::CacheBytes() const {
  // Lock-free reads: the serving layer calls this under its manager lock
  // on every job completion, and PrefixFor holds mu_ while materializing a
  // prefix — taking it here would stall the whole control plane behind one
  // tenant's in-flight materialization.
  return prefix_bytes_.load(std::memory_order_relaxed) +
         gram_cache_.cached_bytes();
}

SessionStats TrainingSession::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionStats out = stats_;
  out.prefix_seconds = prefix_seconds_.value();
  out.cache.misses = prefixes_computed_.value();
  out.cache.cached_bytes = prefix_bytes_.load(std::memory_order_relaxed);
  out.gram_cache = gram_cache_.stats();
  return out;
}

const BlinkConfig& TrainingSession::ConfigForSeed(std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = seed_configs_.find(seed);
  if (it == seed_configs_.end()) {
    auto config = std::make_shared<BlinkConfig>(config_);
    config->seed = seed;
    it = seed_configs_.emplace(seed, std::move(config)).first;
  }
  return *it->second;
}

Result<std::shared_ptr<const TrainingPrefix>> TrainingSession::PrefixFor(
    std::uint64_t seed) {
  const BlinkConfig& config = ConfigForSeed(seed);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = prefixes_.find(seed);
  if (it != prefixes_.end()) {
    ++stats_.cache.hits;
    return it->second;
  }
  // Computed under the lock: concurrent first requests for one seed
  // materialize the prefix exactly once and the losers reuse it.
  obs::SpanScope span("prefix:compute", "session");
  BLINKML_ASSIGN_OR_RETURN(TrainingPrefix prefix,
                           ComputeTrainingPrefix(*data_, config));
  prefixes_computed_.Inc();
  prefix_seconds_.Add(prefix.seconds);
  obs::Registry::Global().Counter("session_prefixes_total")->Inc();
  obs::Registry::Global()
      .FloatCounter("session_prefix_seconds")
      ->Add(prefix.seconds);
  prefix_bytes_.fetch_add(
      prefix.holdout->MemoryBytes() + prefix.initial_sample->MemoryBytes(),
      std::memory_order_relaxed);
  auto shared = std::make_shared<const TrainingPrefix>(std::move(prefix));
  prefixes_.emplace(seed, shared);
  return shared;
}

}  // namespace blinkml
