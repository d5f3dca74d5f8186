#include "linalg/sparse.h"

#include <algorithm>
#include <utility>

#include "linalg/kernels.h"
#include "runtime/parallel.h"

namespace blinkml {

namespace {

// Validates one finished CSR row range against the column bound.
void CheckColumns(const SparseMatrix::Index* cols, SparseMatrix::Index nnz,
                  SparseMatrix::Index bound) {
  for (SparseMatrix::Index i = 0; i < nnz; ++i) {
    BLINKML_CHECK_MSG(cols[i] >= 0 && cols[i] < bound,
                      "sparse entry column out of range");
  }
}

}  // namespace

const std::shared_ptr<const SparseMatrix::Structure>&
SparseMatrix::EmptyStructure() {
  static const std::shared_ptr<const Structure> empty =
      std::make_shared<const Structure>();
  return empty;
}

SparseMatrix::SparseMatrix(Index cols,
                           std::vector<std::vector<SparseEntry>> rows) {
  BLINKML_CHECK_GE(cols, 0);
  auto s = std::make_shared<Structure>();
  s->rows = static_cast<Index>(rows.size());
  s->cols = cols;
  s->row_ptr.resize(rows.size() + 1);
  s->row_ptr[0] = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    s->row_ptr[r + 1] = s->row_ptr[r] + static_cast<Index>(rows[r].size());
  }
  const std::size_t total = static_cast<std::size_t>(s->row_ptr.back());
  s->col_idx.resize(total);
  values_.resize(total);
  // Output ranges are fixed by the prefix sums above, so rows sort and
  // copy into disjoint slices in parallel — identical at any thread count.
  ParallelFor(0, s->rows, [&](Index b, Index e) {
    for (Index r = b; r < e; ++r) {
      auto& row = rows[static_cast<std::size_t>(r)];
      std::sort(row.begin(), row.end(),
                [](const SparseEntry& a, const SparseEntry& b) {
                  return a.col < b.col;
                });
      Index out = s->row_ptr[static_cast<std::size_t>(r)];
      for (const SparseEntry& entry : row) {
        BLINKML_CHECK_MSG(entry.col >= 0 && entry.col < cols,
                          "sparse entry column out of range");
        s->col_idx[static_cast<std::size_t>(out)] = entry.col;
        values_[static_cast<std::size_t>(out)] = entry.value;
        ++out;
      }
    }
  });
  structure_ = std::move(s);
}

SparseMatrix::SparseMatrix(Index rows, Index cols, std::vector<Index> row_ptr,
                           std::vector<Index> col_idx,
                           std::vector<double> values)
    : values_(std::move(values)) {
  BLINKML_CHECK_EQ(static_cast<Index>(row_ptr.size()), rows + 1);
  BLINKML_CHECK_EQ(col_idx.size(), values_.size());
  BLINKML_CHECK_EQ(row_ptr.back(), static_cast<Index>(values_.size()));
  auto s = std::make_shared<Structure>();
  s->rows = rows;
  s->cols = cols;
  s->row_ptr = std::move(row_ptr);
  s->col_idx = std::move(col_idx);
  structure_ = std::move(s);
}

// Both matvecs run the parallel/unrolled kernels (linalg/kernels.cc).

Vector SparseMatrix::Apply(const Vector& x) const {
  BLINKML_CHECK_EQ(static_cast<Index>(x.size()), cols());
  return kernels::Apply(*this, x);
}

Vector SparseMatrix::ApplyTransposed(const Vector& x) const {
  BLINKML_CHECK_EQ(static_cast<Index>(x.size()), rows());
  return kernels::ApplyTransposed(*this, x);
}

double SparseMatrix::RowDot(Index r, const Vector& x) const {
  BLINKML_CHECK_EQ(static_cast<Index>(x.size()), cols());
  return RowDot(r, x.data());
}

double SparseMatrix::RowDot(Index r, const double* x) const {
  BLINKML_DCHECK(r >= 0 && r < rows());
  const Index n = RowNnz(r);
  const Index* cols = RowCols(r);
  const double* vals = RowValues(r);
  double s = 0.0;
  for (Index i = 0; i < n; ++i) s += vals[i] * x[cols[i]];
  return s;
}

void SparseMatrix::AddRowTo(Index r, double alpha, Vector* y) const {
  BLINKML_CHECK_EQ(static_cast<Index>(y->size()), cols());
  AddRowTo(r, alpha, y->data());
}

void SparseMatrix::AddRowTo(Index r, double alpha, double* y) const {
  BLINKML_DCHECK(r >= 0 && r < rows());
  const Index n = RowNnz(r);
  const Index* cols = RowCols(r);
  const double* vals = RowValues(r);
  for (Index i = 0; i < n; ++i) y[cols[i]] += alpha * vals[i];
}

SparseMatrix SparseMatrix::ScaleRows(const Vector& coeffs) const {
  BLINKML_CHECK_EQ(static_cast<Index>(coeffs.size()), rows());
  const Structure& s = structure();
  std::vector<double> scaled(values_.size());
  ParallelFor(0, s.rows, [&](Index b, Index e) {
    for (Index r = b; r < e; ++r) {
      const double c = coeffs[r];
      const Index begin = s.row_ptr[static_cast<std::size_t>(r)];
      const Index end = s.row_ptr[static_cast<std::size_t>(r) + 1];
      for (Index i = begin; i < end; ++i) {
        scaled[static_cast<std::size_t>(i)] =
            c * values_[static_cast<std::size_t>(i)];
      }
    }
  });
  return SparseMatrix(structure_ ? structure_ : EmptyStructure(),
                      std::move(scaled));
}

SparseMatrix SparseMatrix::WithValues(std::vector<double> values) const {
  BLINKML_CHECK_EQ(values.size(), values_.size());
  return SparseMatrix(structure_ ? structure_ : EmptyStructure(),
                      std::move(values));
}

SparseMatrix SparseMatrix::TakeRows(const std::vector<Index>& rows) const {
  auto out = std::make_shared<Structure>();
  out->rows = static_cast<Index>(rows.size());
  out->cols = cols();
  out->row_ptr.resize(rows.size() + 1);
  out->row_ptr[0] = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Index r = rows[i];
    BLINKML_CHECK_MSG(r >= 0 && r < this->rows(),
                      "TakeRows index out of range");
    out->row_ptr[i + 1] = out->row_ptr[i] + RowNnz(r);
  }
  const std::size_t total = static_cast<std::size_t>(out->row_ptr.back());
  out->col_idx.resize(total);
  std::vector<double> values(total);
  ParallelFor(0, out->rows, [&](Index b, Index e) {
    for (Index i = b; i < e; ++i) {
      const Index r = rows[static_cast<std::size_t>(i)];
      const Index n = RowNnz(r);
      const Index* cols = RowCols(r);
      const double* vals = RowValues(r);
      const Index dst = out->row_ptr[static_cast<std::size_t>(i)];
      std::copy(cols, cols + n,
                out->col_idx.data() + static_cast<std::size_t>(dst));
      std::copy(vals, vals + n, values.data() + static_cast<std::size_t>(dst));
    }
  });
  return SparseMatrix(std::move(out), std::move(values));
}

Matrix SparseMatrix::ToDense() const {
  Matrix m(rows(), cols());
  for (Index r = 0; r < rows(); ++r) {
    const Index n = RowNnz(r);
    const Index* cols = RowCols(r);
    const double* vals = RowValues(r);
    for (Index i = 0; i < n; ++i) m(r, cols[i]) = vals[i];
  }
  return m;
}

SparseMatrix SparseMatrix::FromDense(const Matrix& dense) {
  const Index rows = dense.rows();
  const Index cols = dense.cols();
  auto s = std::make_shared<Structure>();
  s->rows = rows;
  s->cols = cols;
  s->row_ptr.resize(static_cast<std::size_t>(rows) + 1);
  s->row_ptr[0] = 0;
  // Pass 1: per-row nonzero counts (parallel), then the serial prefix sum
  // that fixes every row's output range.
  std::vector<Index> counts(static_cast<std::size_t>(rows), 0);
  ParallelFor(0, rows, [&](Index b, Index e) {
    for (Index r = b; r < e; ++r) {
      const double* row = dense.row_data(r);
      Index nnz = 0;
      for (Index c = 0; c < cols; ++c) {
        if (row[c] != 0.0) ++nnz;
      }
      counts[static_cast<std::size_t>(r)] = nnz;
    }
  });
  for (Index r = 0; r < rows; ++r) {
    s->row_ptr[static_cast<std::size_t>(r) + 1] =
        s->row_ptr[static_cast<std::size_t>(r)] +
        counts[static_cast<std::size_t>(r)];
  }
  const std::size_t total = static_cast<std::size_t>(s->row_ptr.back());
  s->col_idx.resize(total);
  std::vector<double> values(total);
  // Pass 2: fill the disjoint ranges in parallel.
  ParallelFor(0, rows, [&](Index b, Index e) {
    for (Index r = b; r < e; ++r) {
      const double* row = dense.row_data(r);
      Index out = s->row_ptr[static_cast<std::size_t>(r)];
      for (Index c = 0; c < cols; ++c) {
        if (row[c] != 0.0) {
          s->col_idx[static_cast<std::size_t>(out)] = c;
          values[static_cast<std::size_t>(out)] = row[c];
          ++out;
        }
      }
    }
  });
  return SparseMatrix(std::move(s), std::move(values));
}

void CsrBuilder::Reserve(Index rows, Index nnz) {
  row_ptr_.reserve(static_cast<std::size_t>(rows) + 1);
  col_idx_.reserve(static_cast<std::size_t>(nnz));
  values_.reserve(static_cast<std::size_t>(nnz));
}

void CsrBuilder::Add(Index col, double value) {
  col_idx_.push_back(col);
  values_.push_back(value);
}

double* CsrBuilder::FindInOpenRow(Index col) {
  const Index begin = row_ptr_.back();
  const Index end = static_cast<Index>(col_idx_.size());
  for (Index i = begin; i < end; ++i) {
    if (col_idx_[static_cast<std::size_t>(i)] == col) {
      return &values_[static_cast<std::size_t>(i)];
    }
  }
  return nullptr;
}

void CsrBuilder::FinishRow() {
  const Index begin = row_ptr_.back();
  const Index end = static_cast<Index>(col_idx_.size());
  bool sorted = true;
  for (Index i = begin + 1; i < end; ++i) {
    if (col_idx_[static_cast<std::size_t>(i - 1)] >
        col_idx_[static_cast<std::size_t>(i)]) {
      sorted = false;
      break;
    }
  }
  if (!sorted) {
    scratch_.clear();
    for (Index i = begin; i < end; ++i) {
      scratch_.push_back({col_idx_[static_cast<std::size_t>(i)],
                          values_[static_cast<std::size_t>(i)]});
    }
    std::sort(scratch_.begin(), scratch_.end(),
              [](const SparseEntry& a, const SparseEntry& b) {
                return a.col < b.col;
              });
    for (Index i = begin; i < end; ++i) {
      const SparseEntry& entry = scratch_[static_cast<std::size_t>(i - begin)];
      col_idx_[static_cast<std::size_t>(i)] = entry.col;
      values_[static_cast<std::size_t>(i)] = entry.value;
    }
  }
  row_ptr_.push_back(end);
}

void CsrBuilder::ShiftColumns(Index delta) {
  for (Index& c : col_idx_) c += delta;
}

SparseMatrix CsrBuilder::Build(Index cols) && {
  BLINKML_CHECK_GE(cols, 0);
  BLINKML_CHECK_MSG(row_ptr_.back() == static_cast<Index>(col_idx_.size()),
                    "CsrBuilder::Build with an unfinished row");
  CheckColumns(col_idx_.data(), static_cast<Index>(col_idx_.size()), cols);
  const Index num_rows = rows();  // before the moves below
  return SparseMatrix(num_rows, cols, std::move(row_ptr_),
                      std::move(col_idx_), std::move(values_));
}

}  // namespace blinkml
