#include "serve/session_manager.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "util/failpoints.h"

namespace blinkml {
namespace {

/// Shared handling for the manager-level failpoints ("manager.train",
/// "manager.search"): bumps the per-point fault counter in the manager's
/// registry, applies delays inline, and returns non-OK for injected
/// errors — inside RunJob, so the failure takes the normal accounting
/// and tracing path (jobs_failed, manager span).
Status CheckManagerFailpoint(const char* point, obs::Registry* metrics) {
  fail::FaultAction fault;
  if (!BLINKML_FAILPOINT(point, &fault)) return Status::OK();
  metrics->Counter("serve_faults_injected_total", {{"point", point}})->Inc();
  if (fault.kind == fail::FaultKind::kDelay) {
    std::this_thread::sleep_for(std::chrono::milliseconds(fault.arg));
    return Status::OK();
  }
  return Status::Unavailable(std::string("injected fault at ") + point);
}

}  // namespace
}  // namespace blinkml

namespace blinkml {

SessionManager::SessionManager(ServeOptions options)
    : options_(options),
      max_jobs_(options.max_concurrent_jobs > 0
                    ? options.max_concurrent_jobs
                    : ThreadPool::DefaultParallelism()),
      owned_metrics_(options.metrics ? nullptr : new obs::Registry()),
      metrics_(options.metrics ? options.metrics : owned_metrics_.get()),
      m_jobs_submitted_(metrics_->Counter("serve_jobs_submitted_total")),
      m_jobs_completed_(metrics_->Counter("serve_jobs_completed_total")),
      m_jobs_failed_(metrics_->Counter("serve_jobs_failed_total")),
      m_sessions_created_(metrics_->Counter("serve_sessions_created_total")),
      m_sessions_evicted_(metrics_->Counter("serve_sessions_evicted_total")),
      m_datasets_loaded_(metrics_->Counter("serve_datasets_loaded_total")),
      m_datasets_unloaded_(metrics_->Counter("serve_datasets_unloaded_total")),
      g_resident_bytes_(metrics_->Gauge("serve_resident_bytes")),
      g_cached_bytes_(metrics_->Gauge("serve_cached_bytes")),
      g_live_sessions_(metrics_->Gauge("serve_live_sessions")),
      g_loaded_datasets_(metrics_->Gauge("serve_loaded_datasets")),
      g_loads_in_progress_(metrics_->Gauge("serve_loads_in_progress")),
      g_queued_jobs_(metrics_->Gauge("serve_queued_jobs")),
      g_active_jobs_(metrics_->Gauge("serve_active_jobs")) {}

Status SessionManager::RegisterDataset(const std::string& name,
                                       DatasetFactory factory,
                                       BlinkConfig config) {
  if (!factory) return Status::InvalidArgument("null dataset factory");
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = datasets_.try_emplace(name);
  if (!inserted) {
    return Status::InvalidArgument("dataset already registered: " + name);
  }
  it->second.factory = std::move(factory);
  it->second.config = std::move(config);
  return Status::OK();
}

Status SessionManager::RegisterDataset(const std::string& name, Dataset data,
                                       BlinkConfig config) {
  auto shared = std::make_shared<const Dataset>(std::move(data));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = datasets_.try_emplace(name);
  if (!inserted) {
    return Status::InvalidArgument("dataset already registered: " + name);
  }
  DatasetEntry& entry = it->second;
  // The registry's factory closure owns the materialization, so dropping
  // the `loaded` future would free nothing: mark the entry pinned so the
  // budget keeps counting it instead of pretending to unload it.
  entry.factory = [shared] { return Dataset(*shared); };
  entry.pinned_resident = true;
  entry.config = std::move(config);
  std::promise<std::shared_ptr<const Dataset>> promise;
  entry.loaded = promise.get_future().share();
  promise.set_value(shared);
  entry.load_done = true;
  entry.bytes = shared->MemoryBytes();
  m_datasets_loaded_->Inc();
  return Status::OK();
}

Result<SessionManager::Lease> SessionManager::Acquire(const std::string& name,
                                                      std::uint64_t* seed) {
  std::shared_future<std::shared_ptr<const Dataset>> load;
  std::promise<std::shared_ptr<const Dataset>> promise;
  DatasetFactory factory;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = datasets_.find(name);
    if (it == datasets_.end()) {
      return Status::NotFound("unknown dataset: " + name);
    }
    DatasetEntry& entry = it->second;
    entry.last_used = ++touch_tick_;
    // Pin the entry until the session exists (see DatasetEntry::pending).
    ++entry.pending;
    if (*seed == 0) *seed = entry.config.seed;
    if (!entry.loaded.valid()) {
      // First request (or a retry after a failed/unloaded one): this job
      // leads the load; concurrent requests wait on the shared future.
      entry.loaded = promise.get_future().share();
      factory = entry.factory;
      leader = true;
    }
    load = entry.loaded;
  }
  const auto unpin = [this, &name] {
    std::lock_guard<std::mutex> lock(mu_);
    --datasets_[name].pending;
  };

  std::shared_ptr<const Dataset> data;
  if (leader) {
    try {
      data = std::make_shared<const Dataset>(factory());
    } catch (...) {
      {
        // Clear the future so the next request retries the load; waiters
        // holding this future still receive the exception below.
        std::lock_guard<std::mutex> lock(mu_);
        DatasetEntry& entry = datasets_[name];
        entry.loaded = {};
        --entry.pending;
      }
      promise.set_exception(std::current_exception());
      throw;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      DatasetEntry& entry = datasets_[name];
      entry.load_done = true;
      entry.bytes = data->MemoryBytes();
      m_datasets_loaded_->Inc();
    }
    promise.set_value(data);
  } else {
    try {
      data = load.get();  // rethrows the leader's factory exception
    } catch (...) {
      unpin();
      throw;
    }
  }

  SessionKey key{name, *seed};
  std::lock_guard<std::mutex> lock(mu_);
  // The pin has served its purpose once we hold the lock through session
  // creation: nothing can interleave. Dropping it first also keeps the
  // dataset correctly unpinned if anything below throws.
  --datasets_[name].pending;
  auto it = sessions_.find(key);
  if (it == sessions_.end()) {
    // Build the session fully before touching any container, so an
    // allocation failure leaves the map/LRU untouched (no null-session
    // entry, no singular lru_pos).
    BlinkConfig config = datasets_[name].config;
    config.seed = *seed;
    auto session =
        std::make_shared<TrainingSession>(std::move(data), std::move(config));
    lru_.push_front(key);
    try {
      ManagedSession managed;
      managed.session = std::move(session);
      managed.lru_pos = lru_.begin();
      it = sessions_.emplace(key, std::move(managed)).first;
    } catch (...) {
      lru_.pop_front();
      throw;
    }
    ++datasets_[name].sessions;
    m_sessions_created_->Inc();
  } else {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  }
  ++it->second.active_jobs;
  return Lease(this, std::move(key), it->second.session);
}

void SessionManager::Release(const SessionKey& key) {
  // Runs from the Lease destructor, possibly during exception unwinding:
  // must not throw.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(key);
  if (it == sessions_.end() || it->second.active_jobs <= 0) return;
  --it->second.active_jobs;
  EnforceBudgetLocked(/*force=*/false);
}

std::uint64_t SessionManager::ResidentBytesLocked() const {
  std::uint64_t bytes = 0;
  for (const auto& [name, entry] : datasets_) {
    if (entry.load_done) bytes += entry.bytes;
  }
  for (const auto& [key, managed] : sessions_) {
    bytes += managed.session->CacheBytes();
  }
  return bytes;
}

std::uint64_t SessionManager::ReclaimableBytesLocked() const {
  std::uint64_t bytes = 0;
  for (const auto& [name, entry] : datasets_) {
    if (entry.load_done && !entry.pinned_resident) bytes += entry.bytes;
  }
  for (const auto& [key, managed] : sessions_) {
    bytes += managed.session->CacheBytes();
  }
  return bytes;
}

int SessionManager::EnforceBudgetLocked(bool force) {
  const std::uint64_t budget = force ? 0 : options_.max_resident_bytes;
  if (budget == 0 && !force) return 0;
  // One byte scan up front, then subtract per eviction: keeps the
  // job-completion path (Release) linear in the pool size instead of
  // rescanning every session's caches once per evicted entry. The budget
  // is compared against the RECLAIMABLE footprint (pinned datasets
  // excluded — see ServeOptions::max_resident_bytes), so unfreeable bytes
  // can never wedge enforcement into evicting every cache forever.
  std::uint64_t resident = ReclaimableBytesLocked();

  int evicted = 0;
  // Idle sessions first, least-recently-used first, in one backward walk
  // over the LRU list. Dropping a session frees its caches; in-use
  // sessions are pinned by their lease refcount. An idle session's cache
  // footprint cannot change under us: only jobs mutate caches, and taking
  // a lease requires mu_.
  for (auto rit = lru_.rbegin();
       rit != lru_.rend() && (force || resident > budget);) {
    auto it = sessions_.find(*rit);
    if (it->second.active_jobs > 0) {
      ++rit;
      continue;
    }
    const std::uint64_t bytes = it->second.session->CacheBytes();
    resident -= std::min(resident, bytes);
    --datasets_[rit->dataset].sessions;
    sessions_.erase(it);
    auto next = lru_.erase(std::next(rit).base());
    rit = std::list<SessionKey>::reverse_iterator(next);
    m_sessions_evicted_->Inc();
    ++evicted;
  }
  // Then unreferenced datasets, stalest first. Entries stay registered;
  // only the materialization is dropped (the next job reloads it).
  if (force || resident > budget) {
    std::vector<DatasetEntry*> idle;
    for (auto& [name, entry] : datasets_) {
      if (entry.load_done && entry.sessions == 0 && entry.pending == 0 &&
          !entry.pinned_resident) {
        idle.push_back(&entry);
      }
    }
    std::sort(idle.begin(), idle.end(),
              [](const DatasetEntry* a, const DatasetEntry* b) {
                return a->last_used < b->last_used;
              });
    for (DatasetEntry* entry : idle) {
      if (!force && resident <= budget) break;
      resident -= std::min(resident, entry->bytes);
      entry->loaded = {};
      entry->load_done = false;
      entry->bytes = 0;
      m_datasets_unloaded_->Inc();
    }
  }
  return evicted;
}

int SessionManager::EvictIdle() {
  std::lock_guard<std::mutex> lock(mu_);
  return EnforceBudgetLocked(/*force=*/true);
}

SessionManager::JobSlot::JobSlot(SessionManager* manager)
    : manager_(manager) {
  std::unique_lock<std::mutex> lock(manager_->mu_);
  manager_->m_jobs_submitted_->Inc();
  manager_->g_queued_jobs_->Add(1);
  manager_->slot_cv_.wait(lock, [this] {
    return manager_->g_active_jobs_->value() < manager_->max_jobs_;
  });
  manager_->g_queued_jobs_->Add(-1);
  manager_->g_active_jobs_->Add(1);
}

SessionManager::JobSlot::~JobSlot() {
  {
    std::lock_guard<std::mutex> lock(manager_->mu_);
    manager_->g_active_jobs_->Add(-1);
  }
  manager_->slot_cv_.notify_one();
}

Result<ApproxResult> SessionManager::Train(const TrainRequest& request) {
  const JobSlot slot(this);
  obs::SpanScope span("manager:train", "serve");
  return RunJob<ApproxResult>([&]() -> Result<ApproxResult> {
    BLINKML_RETURN_NOT_OK(CheckManagerFailpoint("manager.train", metrics_));
    if (!request.spec) {
      return Status::InvalidArgument("null model spec");
    }
    std::uint64_t seed = request.seed;
    BLINKML_ASSIGN_OR_RETURN(Lease lease, Acquire(request.dataset, &seed));
    return lease.session().Train(*request.spec, request.contract, seed);
  });
}

Result<SearchOutcome> SessionManager::Search(const SearchRequest& request) {
  const JobSlot slot(this);
  obs::SpanScope span("manager:search", "serve");
  return RunJob<SearchOutcome>([&]() -> Result<SearchOutcome> {
    BLINKML_RETURN_NOT_OK(CheckManagerFailpoint("manager.search", metrics_));
    if (!request.factory) {
      return Status::InvalidArgument("null spec factory");
    }
    std::uint64_t seed = request.seed;
    BLINKML_ASSIGN_OR_RETURN(Lease lease, Acquire(request.dataset, &seed));
    const HyperparamSearch search(&lease.session(), request.options);
    return search.Run(request.factory, request.candidates);
  });
}

void SessionManager::RefreshGaugesLocked() const {
  g_resident_bytes_->Set(static_cast<std::int64_t>(ResidentBytesLocked()));
  g_live_sessions_->Set(static_cast<std::int64_t>(sessions_.size()));
  int loaded = 0;
  int in_progress = 0;
  for (const auto& [name, entry] : datasets_) {
    if (entry.load_done) ++loaded;
    // A valid future with load_done still false means a leader job is
    // inside the factory right now (single-flight load in progress).
    if (entry.loaded.valid() && !entry.load_done) ++in_progress;
  }
  g_loaded_datasets_->Set(loaded);
  g_loads_in_progress_->Set(in_progress);
  std::uint64_t cached = 0;
  for (const auto& [key, managed] : sessions_) {
    cached += managed.session->CacheBytes();
  }
  g_cached_bytes_->Set(static_cast<std::int64_t>(cached));
}

ServeStats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  RefreshGaugesLocked();
  ServeStats out;
  out.jobs_submitted = m_jobs_submitted_->value();
  out.jobs_completed = m_jobs_completed_->value();
  out.jobs_failed = m_jobs_failed_->value();
  out.sessions_created = m_sessions_created_->value();
  out.sessions_evicted = m_sessions_evicted_->value();
  out.datasets_loaded = m_datasets_loaded_->value();
  out.datasets_unloaded = m_datasets_unloaded_->value();
  out.resident_bytes = static_cast<std::uint64_t>(g_resident_bytes_->value());
  out.cached_bytes = static_cast<std::uint64_t>(g_cached_bytes_->value());
  out.live_sessions = static_cast<int>(g_live_sessions_->value());
  out.loaded_datasets = static_cast<int>(g_loaded_datasets_->value());
  out.loads_in_progress = static_cast<int>(g_loads_in_progress_->value());
  out.queued_jobs = static_cast<int>(g_queued_jobs_->value());
  out.active_jobs = static_cast<int>(g_active_jobs_->value());
  return out;
}

std::string SessionManager::MetricsText() const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    RefreshGaugesLocked();
  }
  return metrics_->TextSnapshot();
}

}  // namespace blinkml
