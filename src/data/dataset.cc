#include "data/dataset.h"

#include <cmath>
#include <utility>

#include "linalg/kernels.h"

namespace blinkml {

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
  Vector labels;
  if (has_labels()) {
    labels.Resize(static_cast<Vector::Index>(rows.size()));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      BLINKML_CHECK_MSG(rows[i] >= 0 && rows[i] < num_rows_,
                        "TakeRows index out of range");
      labels[static_cast<Vector::Index>(i)] = labels_[rows[i]];
    }
  }
  if (is_sparse_) {
    return Dataset(sparse_.TakeRows(rows), std::move(labels), task_,
                   num_classes_);
  }
  Matrix out(static_cast<Matrix::Index>(rows.size()), dim_);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    BLINKML_CHECK_MSG(rows[i] >= 0 && rows[i] < num_rows_,
                      "TakeRows index out of range");
    std::copy(dense_.row_data(rows[i]), dense_.row_data(rows[i]) + dim_,
              out.row_data(static_cast<Matrix::Index>(i)));
  }
  return Dataset(std::move(out), std::move(labels), task_, num_classes_);
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
