// SessionManager: the multi-dataset serving layer.
//
// A TrainingSession amortizes BlinkML's shared artifacts (holdout/D_0
// prefixes, feature Grams) within one dataset and seed; this layer serves
// many tenants over many datasets from one process:
//
//   SessionManager manager;
//   manager.RegisterDataset("criteo", [] { return LoadCriteo(); });
//   auto a = manager.Train({"criteo", spec, {0.05, 0.05}});
//   auto b = manager.Search({"criteo", factory, grid, options});
//   // a: Result<ApproxResult>, bitwise == Coordinator::Train
//
// Responsibilities:
//  * a registry of named datasets, loaded/generated lazily on first use
//    (single-flight: concurrent first requests load once) and refcounted
//    by the sessions built on them — a dataset is never unloaded while a
//    session references it;
//  * a (dataset, seed)-keyed pool of TrainingSessions with a byte-budget
//    LRU eviction policy spanning each session's memoized prefixes and
//    FeatureGramCache plus the loaded datasets themselves: when the
//    resident footprint exceeds ServeOptions::max_resident_bytes, idle
//    sessions are evicted oldest-first and then unreferenced datasets are
//    unloaded. Sessions with in-flight jobs are never evicted (their
//    refcount pins them); eviction only drops caches, never correctness —
//    every cached artifact is a pure function of its key and is recomputed
//    on the next request;
//  * job admission: Train and Search run on the calling thread (a
//    BlinkServer runner when serving) and return the job's Result. At most
//    ServeOptions::max_concurrent_jobs jobs run at once; later callers
//    wait for a slot. A job's parallel regions execute on the shared
//    runtime pool (runtime/parallel.h). A region's caller runs chunks
//    itself and waits only for chunks another lane has claimed, never for
//    a lane task still queued, so a Train that arrives during a Search
//    does not wait out the search's candidate loop. Do not call Train or
//    Search from a pool task: the job would hold a worker for its whole
//    run, and lane tasks queued behind it would start only after it ends,
//    leaving other jobs' regions on fewer lanes. Callers are pure
//    coordinators; the heavy loops land on the pool.
//
// Determinism: a job's result is bitwise identical to a standalone
// Coordinator::Train (or single-session HyperparamSearch) with the same
// config and seed, regardless of concurrent tenants, thread count, or
// eviction history — each job's random streams derive only from its
// resolved seed, and the runtime's chunk layouts are thread-count
// invariant. Exceptions thrown inside a job (dataset factories, model
// code) propagate out of Train and Search.

#ifndef BLINKML_SERVE_SESSION_MANAGER_H_
#define BLINKML_SERVE_SESSION_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "session/hyperparam_search.h"
#include "session/training_session.h"

namespace blinkml {

/// Produces a registered dataset on first use (load from disk, synthesize,
/// ...). May throw; the exception reaches every job waiting on the load
/// and the load is retried on the next request.
using DatasetFactory = std::function<Dataset()>;

struct ServeOptions {
  /// Budget for RECLAIMABLE resident bytes: lazily-loaded datasets plus
  /// every session's cache retention (TrainingSession::CacheBytes).
  /// 0 = unlimited. Enforced after each job completes; in-use sessions
  /// and the datasets they reference are exempt, so the footprint can
  /// transiently exceed the budget while jobs are in flight.
  /// Pre-materialized registrations (pinned resident) are reported in
  /// ServeStats::resident_bytes but not charged against this budget:
  /// they can never be freed, so charging them would permanently disable
  /// every cache the moment they alone exceeded the budget.
  std::uint64_t max_resident_bytes = 0;
  /// Jobs allowed to run at once; callers beyond it wait for a slot
  /// (ServeStats::queued_jobs). 0 = the runtime pool's default
  /// parallelism.
  int max_concurrent_jobs = 0;
  /// Metrics registry the manager reports into (serve_* counters/gauges;
  /// BlinkServer adds its net_* metrics to the same registry). Null = the
  /// manager owns a private registry — the default, so tests running
  /// several managers in one process never cross-contaminate counts.
  obs::Registry* metrics = nullptr;
};

/// One contract-bound training on a registered dataset.
struct TrainRequest {
  std::string dataset;
  std::shared_ptr<const ModelSpec> spec;
  ApproximationContract contract;
  /// Master seed of the run; 0 = the dataset's configured seed. Jobs with
  /// equal (dataset, seed) share one TrainingSession and its caches.
  std::uint64_t seed = 0;
};

/// One hyperparameter search on a registered dataset.
struct SearchRequest {
  std::string dataset;
  SpecFactory factory;
  std::vector<Candidate> candidates;
  SearchOptions options;
  /// Session seed (see TrainRequest::seed); per-candidate seeds still
  /// override per candidate.
  std::uint64_t seed = 0;
};

/// Snapshot view of the manager's metrics registry (the registry is the
/// source of truth since the obs layer; this struct remains for in-process
/// callers and the wire Stats verb).
struct ServeStats {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  /// Jobs whose Result carried an error or whose body threw.
  std::uint64_t jobs_failed = 0;
  std::uint64_t sessions_created = 0;
  std::uint64_t sessions_evicted = 0;
  std::uint64_t datasets_loaded = 0;
  std::uint64_t datasets_unloaded = 0;
  /// Loaded datasets + session cache retention at snapshot time.
  std::uint64_t resident_bytes = 0;
  /// The session-cache share of resident_bytes (sum of every live
  /// session's TrainingSession::CacheBytes) — what eviction can free
  /// without unloading a dataset.
  std::uint64_t cached_bytes = 0;
  int live_sessions = 0;
  int loaded_datasets = 0;
  /// Single-flight dataset loads started but not yet finished (a job is
  /// inside the factory; concurrent requests are parked on its future).
  int loads_in_progress = 0;
  /// Callers waiting for a job slot, and jobs holding one.
  int queued_jobs = 0;
  int active_jobs = 0;
};

class SessionManager {
 public:
  explicit SessionManager(ServeOptions options = {});

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Registers a lazily-loaded dataset under `name`; `config` seeds and
  /// configures every session on it. Fails if the name is taken.
  Status RegisterDataset(const std::string& name, DatasetFactory factory,
                         BlinkConfig config = {});

  /// Same with an already-materialized dataset (counts as loaded). The
  /// registry itself owns the materialization, so such datasets are
  /// pinned resident: the byte budget counts them but never "unloads"
  /// them (that would free nothing). Prefer the factory overload for
  /// datasets that should be evictable under memory pressure.
  Status RegisterDataset(const std::string& name, Dataset data,
                         BlinkConfig config = {});

  /// Runs one training on the calling thread once a job slot is free.
  /// Unknown datasets and invalid requests return an error Result;
  /// exceptions thrown by the job propagate to the caller.
  Result<ApproxResult> Train(const TrainRequest& request);

  /// Runs one hyperparameter search over a (dataset, seed) session, like
  /// Train.
  Result<SearchOutcome> Search(const SearchRequest& request);

  /// Drops every idle session and every unreferenced dataset regardless of
  /// the byte budget (an operational "drop caches now" hook; also what the
  /// tests use to observe the refcount protection). Returns the number of
  /// sessions evicted. In-use sessions and their datasets survive.
  int EvictIdle();

  ServeStats stats() const;

  /// The registry this manager reports into (ServeOptions::metrics or the
  /// manager-owned one). BlinkServer registers its net_* metrics here so
  /// one text snapshot covers the whole serving stack.
  obs::Registry& metrics() const { return *metrics_; }

  /// Registry text snapshot with the sampled gauges (resident/cached
  /// bytes, live sessions, loaded datasets, loads in progress) refreshed
  /// first — what the wire Metrics verb returns.
  std::string MetricsText() const;

 private:
  struct DatasetEntry {
    DatasetFactory factory;
    BlinkConfig config;
    /// Valid once a load started; holds the dataset or the factory's
    /// exception. Reset on failure (next request retries) and on unload.
    std::shared_future<std::shared_ptr<const Dataset>> loaded;
    bool load_done = false;  // loaded.get() would not block
    std::uint64_t bytes = 0;
    /// Live sessions built on this dataset (the unload refcount).
    int sessions = 0;
    /// Acquisitions between dataset lookup and session creation; pins the
    /// entry so a concurrent budget enforcement cannot unload a dataset a
    /// job is about to build a session on (which would leave that session
    /// holding an untracked materialization and the next job re-loading a
    /// duplicate copy).
    int pending = 0;
    /// True for datasets registered pre-materialized: their bytes live in
    /// the registry's own factory closure, so "unloading" would free
    /// nothing — they stay resident, always counted, and exempt from the
    /// unload pass (the budget then governs caches + lazy datasets).
    bool pinned_resident = false;
    /// Monotonic touch tick for stale-first unloads.
    std::uint64_t last_used = 0;
  };

  struct SessionKey {
    std::string dataset;
    std::uint64_t seed = 0;
    bool operator==(const SessionKey& other) const {
      return seed == other.seed && dataset == other.dataset;
    }
  };
  struct SessionKeyHash {
    std::size_t operator()(const SessionKey& key) const {
      return std::hash<std::string>()(key.dataset) ^
             (std::hash<std::uint64_t>()(key.seed) * 0x9E3779B97F4A7C15ull);
    }
  };

  struct ManagedSession {
    std::shared_ptr<TrainingSession> session;
    /// Jobs currently holding this session (the eviction refcount).
    int active_jobs = 0;
    /// Position in lru_ (most-recently-used at the front).
    std::list<SessionKey>::iterator lru_pos;
  };

  /// RAII lease: pins the session (and transitively its dataset) for the
  /// duration of one job.
  class Lease {
   public:
    Lease(SessionManager* manager, SessionKey key,
          std::shared_ptr<TrainingSession> session)
        : manager_(manager), key_(std::move(key)),
          session_(std::move(session)) {}
    Lease(Lease&& other) noexcept
        : manager_(other.manager_), key_(std::move(other.key_)),
          session_(std::move(other.session_)) {
      other.manager_ = nullptr;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (manager_ != nullptr) manager_->Release(key_);
    }
    TrainingSession& session() const { return *session_; }

   private:
    SessionManager* manager_;
    SessionKey key_;
    std::shared_ptr<TrainingSession> session_;
  };

  /// RAII job slot: counts the job as submitted, waits as a queued job
  /// until fewer than max_concurrent_jobs jobs hold a slot, and holds one
  /// as an active job until destroyed.
  class JobSlot {
   public:
    explicit JobSlot(SessionManager* manager);
    ~JobSlot();
    JobSlot(const JobSlot&) = delete;
    JobSlot& operator=(const JobSlot&) = delete;

   private:
    SessionManager* const manager_;
  };

  /// Loads the dataset if needed (single-flight), finds or creates the
  /// (dataset, seed) session, pins it, and returns the resolved seed in
  /// *seed (0 mapped to the dataset's configured seed).
  Result<Lease> Acquire(const std::string& name, std::uint64_t* seed);

  void Release(const SessionKey& key);

  /// Evicts idle sessions (LRU-first), then unreferenced datasets
  /// (stalest-first), until the resident footprint fits the budget. With
  /// budget == 0 and force == false this is a no-op; force evicts
  /// everything evictable. Caller holds mu_. Returns sessions evicted.
  int EnforceBudgetLocked(bool force);

  /// Full footprint (pinned datasets included) — what stats() reports.
  std::uint64_t ResidentBytesLocked() const;

  /// The portion eviction can actually free: lazy dataset bytes + session
  /// cache bytes. What the budget is compared against.
  std::uint64_t ReclaimableBytesLocked() const;

  /// Runs one job body with completion/failure accounting: an error
  /// Result or a thrown exception counts as a failed job (the exception
  /// still propagates to the caller). The counters are bumped before the
  /// job returns, so its caller sees it reflected in stats().
  template <typename T, typename Body>
  Result<T> RunJob(const Body& body) {
    try {
      Result<T> result = body();
      m_jobs_completed_->Inc();
      if (!result.ok()) m_jobs_failed_->Inc();
      return result;
    } catch (...) {
      m_jobs_completed_->Inc();
      m_jobs_failed_->Inc();
      throw;
    }
  }

  /// Samples the level gauges (resident/cached bytes, live sessions,
  /// loaded datasets, loads in progress) from the maps. Caller holds mu_.
  void RefreshGaugesLocked() const;

  const ServeOptions options_;
  /// Job slots: options_.max_concurrent_jobs, or the pool's default
  /// parallelism.
  const int max_jobs_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, DatasetEntry> datasets_;
  std::unordered_map<SessionKey, ManagedSession, SessionKeyHash> sessions_;
  /// Session keys, most-recently-used first.
  std::list<SessionKey> lru_;
  std::uint64_t touch_tick_ = 0;

  /// The stats store: every ServeStats field is a view of one of these
  /// registry metrics (resolved once in the constructor; the pointers are
  /// stable for the registry's lifetime).
  std::unique_ptr<obs::Registry> owned_metrics_;
  obs::Registry* metrics_;
  obs::Counter* m_jobs_submitted_;
  obs::Counter* m_jobs_completed_;
  obs::Counter* m_jobs_failed_;
  obs::Counter* m_sessions_created_;
  obs::Counter* m_sessions_evicted_;
  obs::Counter* m_datasets_loaded_;
  obs::Counter* m_datasets_unloaded_;
  obs::Gauge* g_resident_bytes_;
  obs::Gauge* g_cached_bytes_;
  obs::Gauge* g_live_sessions_;
  obs::Gauge* g_loaded_datasets_;
  obs::Gauge* g_loads_in_progress_;
  /// Callers waiting for a job slot and jobs holding one; changed only
  /// under mu_, so they are also the slot count slot_cv_ waits on.
  obs::Gauge* g_queued_jobs_;
  obs::Gauge* g_active_jobs_;
  /// Signaled when a job releases its slot.
  std::condition_variable slot_cv_;
};

}  // namespace blinkml

#endif  // BLINKML_SERVE_SESSION_MANAGER_H_
