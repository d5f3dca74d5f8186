// Training-set abstraction.
//
// A Dataset is a feature matrix (dense or sparse, never both) plus a label
// vector and task metadata. Row subsets (samples, holdouts, splits) are
// materialized copies: BlinkML's samples are small relative to N by design,
// and copies keep the hot training loops free of indirection.
//
// TakeRows is the one gather for dense and CSR subsets. It appends the
// rows, in the order given, to the arrays of a RowStorage
// (data/row_storage.h) and adopts them without a copy: fresh storage is
// reserved, never zero-filled, and storage that already held a subset at
// least as large is refilled in place, with no new mapping or page faults.
// ReleaseStorage gives the arrays back for the next refill, which is how a
// training session reuses one storage for final sample after final sample
// (core/pipeline.h). Every subset is still a copy of its own rows.

#ifndef BLINKML_DATA_DATASET_H_
#define BLINKML_DATA_DATASET_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "linalg/vector.h"
#include "data/row_storage.h"
#include "random/rng.h"
#include "util/check.h"

namespace blinkml {

/// The learning task a dataset's labels encode.
enum class Task {
  kRegression,      // real-valued labels
  kBinary,          // labels in {0, 1}
  kMulticlass,      // labels in {0, ..., num_classes-1}
  kUnsupervised,    // labels ignored (PPCA)
};

class Dataset {
 public:
  using Index = std::int64_t;

  Dataset() = default;

  /// Dense dataset; labels may be empty for unsupervised tasks.
  Dataset(Matrix features, Vector labels, Task task, Index num_classes = 0);

  /// Sparse dataset.
  Dataset(SparseMatrix features, Vector labels, Task task,
          Index num_classes = 0);

  Index num_rows() const { return num_rows_; }
  Index dim() const { return dim_; }
  Task task() const { return task_; }
  /// Number of classes for kMulticlass (2 for kBinary, 0 otherwise).
  Index num_classes() const { return num_classes_; }

  bool is_sparse() const { return is_sparse_; }
  const Matrix& dense() const {
    BLINKML_CHECK_MSG(!is_sparse_, "dataset is sparse");
    return dense_;
  }
  const SparseMatrix& sparse() const {
    BLINKML_CHECK_MSG(is_sparse_, "dataset is dense");
    return sparse_;
  }

  /// Approximate resident size in bytes (feature storage + labels). The
  /// currency of the serving layer's byte-budget accounting
  /// (TrainingSession::CacheBytes, serve/session_manager.h); sparse
  /// datasets that alias a shared CSR structure still count it in full.
  std::uint64_t MemoryBytes() const;

  bool has_labels() const { return labels_.size() > 0; }
  const Vector& labels() const { return labels_; }
  double label(Index i) const { return labels_[i]; }

  /// Dot product of feature row i with a dense parameter slice.
  double RowDot(Index i, const double* theta) const;

  /// out += alpha * x_i (dense scatter of feature row i).
  void AddRowTo(Index i, double alpha, double* out) const;

  /// New dataset with the given rows, in order, in fresh storage.
  Dataset TakeRows(const std::vector<Index>& rows) const;

  /// The same rows written into `storage`'s arrays. Capacity that falls
  /// short is freed first and then reserved anew, growing geometrically
  /// (at most to this dataset's size, unless the rows need more), so old
  /// and new arrays never coexist. Runs under the obs span "sample".
  Dataset TakeRows(const std::vector<Index>& rows, RowStorage storage) const;

  /// Moves this dataset's arrays out for a later TakeRows to refill,
  /// leaving an empty dataset. A CSR structure that another matrix still
  /// aliases stays with that matrix (SparseMatrix::ReleaseArrays).
  RowStorage ReleaseStorage() &&;

  /// Uniform random sample of k rows without replacement.
  Dataset SampleRows(Index k, Rng* rng) const;

  /// Splits into (first, second) with `first_fraction` of rows going to the
  /// first part, after a random shuffle.
  std::pair<Dataset, Dataset> Split(double first_fraction, Rng* rng) const;

 private:
  void ValidateLabels() const;

  bool is_sparse_ = false;
  Matrix dense_;
  SparseMatrix sparse_;
  Vector labels_;
  Task task_ = Task::kRegression;
  Index num_rows_ = 0;
  Index dim_ = 0;
  Index num_classes_ = 0;
};

}  // namespace blinkml

#endif  // BLINKML_DATA_DATASET_H_
