// Thread-safe cache of feature Gram matrices shared across candidate
// models.
//
// For every single-output GLM the per-example gradient matrix over a
// statistics sample is diag(c) X, so the gradient Gram a candidate needs
// is an O(n^2) rescale of Gram(X) = X X^T — and Gram(X) depends only on
// which rows the statistics sample holds, not on the candidate's
// hyperparameters. Those rows are a pure function of (phase, seed,
// parent-sample size): the pipeline draws every subset from
// seed-determined Rng streams (core/pipeline.cc). A K-candidate search
// therefore pays the O(n^2 * overlap) sorted-merge Gram once per key and
// K - 1 cheap rescales (core/statistics.cc). It is the one cache that
// concurrent candidates share; the samples themselves are either memoized
// per seed (holdout, D_0: session/training_session.h) or live for one run
// (D_n: core/pipeline.h).
//
// Entries are n_s x n_s doubles (megabytes each), so this cache evicts:
// least-recently-used entries are dropped once the byte budget is
// exceeded. Misses are single-flight PER KEY: concurrent
// first requests for one key compute the Gram exactly once (followers
// wait on the leader's future), while misses for different keys — and
// hits — proceed concurrently, because the expensive factory runs
// outside the cache-wide lock.

#ifndef BLINKML_DATA_FEATURE_GRAM_CACHE_H_
#define BLINKML_DATA_FEATURE_GRAM_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "data/dataset.h"
#include "linalg/matrix.h"

namespace blinkml {

class FeatureGramCache {
 public:
  /// Which statistics computation of a pipeline run the Gram belongs to.
  /// Part of the key because the two draws consume different Rng streams,
  /// so equal-sized samples from different phases hold different rows.
  enum class Phase : std::uint8_t {
    kInitialStats = 0,  // statistics at m_0 (on D_0)
    kFinalStats = 1,    // re-estimation at m_n (on the final sample)
  };

  struct Key {
    Phase phase = Phase::kInitialStats;
    std::uint64_t seed = 0;          // master seed of the run
    Dataset::Index parent_rows = 0;  // rows of the sample handed to
                                     // ComputeStatistics (the stats
                                     // sub-sample is drawn from it
                                     // deterministically)
    bool operator==(const Key& other) const {
      return phase == other.phase && seed == other.seed &&
             parent_rows == other.parent_rows;
    }
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Entries dropped by the LRU byte budget.
    std::uint64_t evictions = 0;
    /// Misses too large to retain under the budget (callers still get
    /// their Gram, unshared).
    std::uint64_t bypassed = 0;
    /// Bytes currently held by cached Grams.
    std::uint64_t cached_bytes = 0;
  };

  using Factory = std::function<Matrix()>;

  /// Retention budget in bytes (0 = unlimited). When an insert would
  /// exceed it, least-recently-used entries are evicted first; an entry
  /// larger than the whole budget is returned without being retained.
  void set_max_cached_bytes(std::uint64_t max_bytes);

  /// The cached Gram for `key`, materializing it with `factory` on the
  /// first request (single-flight per key; see file comment). The factory
  /// must be a pure function of the key (same key => same sample rows =>
  /// bitwise-identical Gram), which the pipeline's seed-determined
  /// sampling guarantees. A factory exception propagates to the leader
  /// and every waiting follower.
  std::shared_ptr<const Matrix> GetOrCreate(const Key& key,
                                            const Factory& factory);

  /// Drops every cached Gram (shared_ptrs keep live users valid).
  void Clear();

  Stats stats() const;

  /// Lock-free read of Stats::cached_bytes, for byte accounting that must
  /// not contend with the cache mutex (the serving layer's budget
  /// enforcement runs under its own manager lock).
  std::uint64_t cached_bytes() const {
    return cached_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      std::uint64_t h = static_cast<std::uint64_t>(key.phase) * 0x9E3779B9ull;
      h ^= key.seed + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
      h ^= static_cast<std::uint64_t>(key.parent_rows) +
           0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };

  struct Entry {
    Key key;
    std::shared_ptr<const Matrix> gram;
    std::uint64_t bytes = 0;
  };

  static std::uint64_t BytesOf(const Matrix& gram);

  /// Evicts LRU entries until `incoming` more bytes fit the budget.
  /// Caller holds mu_.
  void EvictFor(std::uint64_t incoming);

  using GramFuture = std::shared_future<std::shared_ptr<const Matrix>>;

  mutable std::mutex mu_;
  /// Most-recently-used entries at the front.
  std::list<Entry> lru_;
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  /// Misses currently being computed (leader holds no lock while running
  /// the factory; followers wait on the shared future).
  std::unordered_map<Key, GramFuture, KeyHash> inflight_;
  Stats stats_;
  /// Mirror of stats_.cached_bytes, written under mu_ (see cached_bytes()).
  std::atomic<std::uint64_t> cached_bytes_{0};
  std::uint64_t max_cached_bytes_ = 0;
};

}  // namespace blinkml

#endif  // BLINKML_DATA_FEATURE_GRAM_CACHE_H_
