// Storage for materialized row subsets, kept between refills.
//
// Dataset::TakeRows (data/dataset.h) writes a subset's features and labels
// into the arrays of a RowStorage and wraps them in a Dataset without a
// copy; Dataset::ReleaseStorage hands them back. A refill of storage that
// already held a subset at least as large writes into memory that is
// mapped and faulted in, with no zero fill. A training session keeps its
// final samples' storage in a RowStoragePool and lends it to one final
// train at a time (core/pipeline.h, session/training_session.h).

#ifndef BLINKML_DATA_ROW_STORAGE_H_
#define BLINKML_DATA_ROW_STORAGE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "linalg/sparse.h"

namespace blinkml {

/// The arrays behind one materialized row subset. Their sizes describe the
/// last subset written; their capacities are what a refill can reuse.
struct RowStorage {
  /// Dense features (row-major) or CSR values.
  std::vector<double> values;
  /// CSR row offsets and column indices (empty for dense subsets).
  std::vector<SparseMatrix::Index> row_ptr;
  std::vector<SparseMatrix::Index> col_idx;
  std::vector<double> labels;

  /// Bytes of capacity held across the four arrays.
  std::uint64_t CapacityBytes() const;
};

/// Storage kept between uses and lent to one user at a time. Thread-safe.
/// The pool holds only what was returned to it, so it never keeps more
/// storages than were lent out at the same time.
class RowStoragePool {
 public:
  /// The kept storage with the most capacity, or empty storage when the
  /// pool keeps none.
  RowStorage Borrow();

  /// Keeps `storage` for a later Borrow(); storage without capacity is
  /// dropped. Returning what Borrow() lent never allocates, so it is safe
  /// in a destructor.
  void Return(RowStorage storage);

  /// Capacity bytes of the kept storage (lent storage is not counted).
  /// Lock-free, for byte accounting that must not wait on a lender.
  std::uint64_t kept_bytes() const {
    return kept_bytes_.load(std::memory_order_relaxed);
  }

  /// Number of storages kept (lent storage is not counted).
  int kept_count() const;

 private:
  mutable std::mutex mu_;
  std::vector<RowStorage> kept_;
  /// Storages lent and not yet returned.
  int lent_ = 0;
  /// Mirror of the kept storages' CapacityBytes(), written under mu_.
  std::atomic<std::uint64_t> kept_bytes_{0};
};

}  // namespace blinkml

#endif  // BLINKML_DATA_ROW_STORAGE_H_
