#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/kernels.h"
#include "obs/trace.h"

namespace blinkml {

namespace {

// Empties `v` for `need` elements without filling them. When the capacity
// falls short, the old array is freed before the new one is reserved, and
// the new capacity is max(need, min(2 x capacity, limit)).
template <typename T>
void MakeRoom(std::vector<T>* v, std::size_t need, std::size_t limit) {
  v->clear();
  if (v->capacity() >= need) return;
  const std::size_t grown =
      std::max(need, std::min(2 * v->capacity(), limit));
  std::vector<T>().swap(*v);
  v->reserve(grown);
}

}  // namespace

Dataset::Dataset(Matrix features, Vector labels, Task task, Index num_classes)
    : is_sparse_(false), dense_(std::move(features)),
      labels_(std::move(labels)), task_(task),
      num_rows_(dense_.rows()), dim_(dense_.cols()) {
  num_classes_ = (task == Task::kBinary) ? 2 : num_classes;
  ValidateLabels();
}

Dataset::Dataset(SparseMatrix features, Vector labels, Task task,
                 Index num_classes)
    : is_sparse_(true), sparse_(std::move(features)),
      labels_(std::move(labels)), task_(task),
      num_rows_(sparse_.rows()), dim_(sparse_.cols()) {
  num_classes_ = (task == Task::kBinary) ? 2 : num_classes;
  ValidateLabels();
}

void Dataset::ValidateLabels() const {
  if (task_ == Task::kUnsupervised) return;
  BLINKML_CHECK_MSG(labels_.size() == num_rows_,
                    "label count must match row count");
  if (task_ == Task::kBinary) {
    for (Index i = 0; i < num_rows_; ++i) {
      BLINKML_CHECK_MSG(labels_[i] == 0.0 || labels_[i] == 1.0,
                        "binary labels must be 0 or 1");
    }
  } else if (task_ == Task::kMulticlass) {
    BLINKML_CHECK_GE(num_classes_, 2);
    for (Index i = 0; i < num_rows_; ++i) {
      const double y = labels_[i];
      BLINKML_CHECK_MSG(y == std::floor(y) && y >= 0.0 &&
                            y < static_cast<double>(num_classes_),
                        "multiclass labels must be integers in [0, C)");
    }
  }
}

std::uint64_t Dataset::MemoryBytes() const {
  std::uint64_t bytes =
      static_cast<std::uint64_t>(labels_.size()) * sizeof(double);
  if (is_sparse_) {
    bytes += static_cast<std::uint64_t>(sparse_.nnz()) *
             (sizeof(double) + sizeof(SparseMatrix::Index));
    bytes += static_cast<std::uint64_t>(num_rows_ + 1) *
             sizeof(SparseMatrix::Index);
  } else {
    bytes += static_cast<std::uint64_t>(num_rows_) *
             static_cast<std::uint64_t>(dim_) * sizeof(double);
  }
  return bytes;
}

double Dataset::RowDot(Index i, const double* theta) const {
  if (is_sparse_) return sparse_.RowDot(i, theta);
  const double* row = dense_.row_data(i);
  double s = 0.0;
  for (Index c = 0; c < dim_; ++c) s += row[c] * theta[c];
  return s;
}

void Dataset::AddRowTo(Index i, double alpha, double* out) const {
  if (is_sparse_) {
    sparse_.AddRowTo(i, alpha, out);
    return;
  }
  kernels::AddScaledRow(alpha, dense_.row_data(i), dim_, out);
}

Dataset Dataset::TakeRows(const std::vector<Index>& rows) const {
  return TakeRows(rows, RowStorage());
}

Dataset Dataset::TakeRows(const std::vector<Index>& rows,
                          RowStorage storage) const {
  obs::SpanScope span("sample", "data", "rows",
                      static_cast<long long>(rows.size()));
  for (const Index r : rows) {
    BLINKML_CHECK_MSG(r >= 0 && r < num_rows_, "TakeRows index out of range");
  }
  const auto k = static_cast<Index>(rows.size());
  MakeRoom(&storage.labels, has_labels() ? rows.size() : 0,
           static_cast<std::size_t>(labels_.size()));
  if (has_labels()) {
    for (const Index r : rows) storage.labels.push_back(labels_[r]);
  }
  // A dense row is a CSR row of dim_ entries without column indices.
  std::size_t entries = rows.size() * static_cast<std::size_t>(dim_);
  std::size_t all_entries = static_cast<std::size_t>(num_rows_ * dim_);
  if (is_sparse_) {
    MakeRoom(&storage.row_ptr, rows.size() + 1,
             static_cast<std::size_t>(num_rows_) + 1);
    storage.row_ptr.push_back(0);
    for (const Index r : rows) {
      storage.row_ptr.push_back(storage.row_ptr.back() + sparse_.RowNnz(r));
    }
    entries = static_cast<std::size_t>(storage.row_ptr.back());
    all_entries = static_cast<std::size_t>(sparse_.nnz());
    MakeRoom(&storage.col_idx, entries, all_entries);
  }
  MakeRoom(&storage.values, entries, all_entries);
  for (const Index r : rows) {
    const double* values = is_sparse_ ? sparse_.RowValues(r)
                                      : dense_.row_data(r);
    const Index n = is_sparse_ ? sparse_.RowNnz(r) : dim_;
    storage.values.insert(storage.values.end(), values, values + n);
    if (is_sparse_) {
      const Index* cols = sparse_.RowCols(r);
      storage.col_idx.insert(storage.col_idx.end(), cols, cols + n);
    }
  }
  Vector labels(std::move(storage.labels));
  if (is_sparse_) {
    return Dataset(SparseMatrix(k, dim_, std::move(storage.row_ptr),
                                std::move(storage.col_idx),
                                std::move(storage.values)),
                   std::move(labels), task_, num_classes_);
  }
  return Dataset(Matrix(k, dim_, std::move(storage.values)), std::move(labels),
                 task_, num_classes_);
}

RowStorage Dataset::ReleaseStorage() && {
  RowStorage out;
  if (is_sparse_) {
    std::move(sparse_).ReleaseArrays(&out.row_ptr, &out.col_idx, &out.values);
  } else {
    out.values = std::move(dense_).ReleaseValues();
  }
  out.labels = std::move(labels_).ReleaseValues();
  num_rows_ = 0;
  dim_ = 0;
  return out;
}

Dataset Dataset::SampleRows(Index k, Rng* rng) const {
  BLINKML_CHECK(k >= 0 && k <= num_rows_);
  return TakeRows(SampleWithoutReplacement(num_rows_, k, rng));
}

std::pair<Dataset, Dataset> Dataset::Split(double first_fraction,
                                           Rng* rng) const {
  BLINKML_CHECK(first_fraction >= 0.0 && first_fraction <= 1.0);
  std::vector<Index> perm = RandomPermutation(num_rows_, rng);
  const Index k = static_cast<Index>(
      std::llround(first_fraction * static_cast<double>(num_rows_)));
  std::vector<Index> first(perm.begin(), perm.begin() + k);
  std::vector<Index> second(perm.begin() + k, perm.end());
  return {TakeRows(first), TakeRows(second)};
}

}  // namespace blinkml
