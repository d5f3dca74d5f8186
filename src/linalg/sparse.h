// Compressed-sparse-row (CSR) matrix with a shared structure.
//
// Used for the high-dimensional workloads (Criteo-like hashed categorical
// features, Yelp-like bag-of-words): feature matrices where d is in the
// tens of thousands but each row touches only a handful of columns. Only
// the operations the library needs are provided: matvec, transposed matvec,
// row iteration, row-subset extraction (for sampling), and row rescaling.
//
// The sparsity structure (row_ptr + col_idx) lives behind a shared_ptr,
// separate from the values. Matrices produced by ScaleRows / WithValues
// alias the source's structure instead of copying it — the form every
// single-output GLM's per-example gradient matrix takes (diag(c) X shares
// X's structure exactly), so the statistics path never duplicates the
// index arrays, which dominate CSR memory. Construction and FromDense are
// chunk-parallel over rows with a deterministic layout (per-row output
// ranges are precomputed, so results are identical at any thread count;
// see runtime/parallel.h). Row subsets are gathered by Dataset::TakeRows
// (data/dataset.h), which builds them through the array constructor and
// takes the arrays back with ReleaseArrays.

#ifndef BLINKML_LINALG_SPARSE_H_
#define BLINKML_LINALG_SPARSE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "util/check.h"

namespace blinkml {

/// One (column, value) entry of a sparse row.
struct SparseEntry {
  std::int64_t col;
  double value;
};

class SparseMatrix {
 public:
  using Index = std::int64_t;

  SparseMatrix() = default;

  /// Builds from per-row entry lists. Entries within a row must have valid
  /// column indices; they are sorted by column on construction.
  SparseMatrix(Index cols, std::vector<std::vector<SparseEntry>> rows);

  /// Builds directly from CSR arrays (row_ptr has rows+1 entries),
  /// adopting them without a copy.
  SparseMatrix(Index rows, Index cols, std::vector<Index> row_ptr,
               std::vector<Index> col_idx, std::vector<double> values);

  /// Moves the CSR arrays out, leaving an empty matrix: the inverse of the
  /// array constructor. While another matrix aliases this one's structure
  /// (ScaleRows / WithValues lineage), that matrix keeps it, and row_ptr
  /// and col_idx come out empty.
  void ReleaseArrays(std::vector<Index>* row_ptr, std::vector<Index>* col_idx,
                     std::vector<double>* values) &&;

  Index rows() const { return structure().rows; }
  Index cols() const { return structure().cols; }
  Index nnz() const { return static_cast<Index>(values_.size()); }

  /// Number of entries in row r.
  Index RowNnz(Index r) const {
    BLINKML_DCHECK(r >= 0 && r < rows());
    const auto& s = structure();
    return s.row_ptr[static_cast<std::size_t>(r) + 1] -
           s.row_ptr[static_cast<std::size_t>(r)];
  }

  /// Raw access for kernels: columns/values of row r.
  const Index* RowCols(Index r) const {
    const auto& s = structure();
    return s.col_idx.data() + s.row_ptr[static_cast<std::size_t>(r)];
  }
  const double* RowValues(Index r) const {
    return values_.data() + structure().row_ptr[static_cast<std::size_t>(r)];
  }

  /// y = A x.
  Vector Apply(const Vector& x) const;

  /// y = A^T x.
  Vector ApplyTransposed(const Vector& x) const;

  /// Dot product of row r with a dense vector.
  double RowDot(Index r, const Vector& x) const;

  /// Dot product of row r with a raw dense array of length >= cols().
  double RowDot(Index r, const double* x) const;

  /// y += alpha * row_r (scatter).
  void AddRowTo(Index r, double alpha, Vector* y) const;
  void AddRowTo(Index r, double alpha, double* y) const;

  /// diag(coeffs) * this: row i scaled by coeffs[i]. The result ALIASES
  /// this matrix's structure (no index copy) — the per-example gradient
  /// form of every single-output GLM. O(nnz) over the values, in parallel.
  SparseMatrix ScaleRows(const Vector& coeffs) const;

  /// Same structure with caller-provided values (length must equal nnz()).
  SparseMatrix WithValues(std::vector<double> values) const;

  /// True when both matrices alias one structure object (ScaleRows /
  /// WithValues lineage), as opposed to merely having equal layouts.
  bool SharesStructureWith(const SparseMatrix& other) const {
    return structure_ == other.structure_ && structure_ != nullptr;
  }

  /// Dense copy (for tests / small matrices).
  Matrix ToDense() const;

  /// Builds a CSR matrix from a dense one, dropping exact zeros.
  static SparseMatrix FromDense(const Matrix& dense);

 private:
  /// The shareable half of a CSR matrix: everything except the values.
  struct Structure {
    Index rows = 0;
    Index cols = 0;
    std::vector<Index> row_ptr = {0};
    std::vector<Index> col_idx;
  };

  static const std::shared_ptr<const Structure>& EmptyStructure();

  const Structure& structure() const {
    return structure_ ? *structure_ : *EmptyStructure();
  }

  SparseMatrix(std::shared_ptr<const Structure> structure,
               std::vector<double> values)
      : structure_(std::move(structure)), values_(std::move(values)) {}

  std::shared_ptr<const Structure> structure_;
  std::vector<double> values_;
};

/// Incremental CSR assembly into flat arrays — no per-row vector
/// allocation. Callers append entries to the open row, FinishRow() when a
/// row is complete (entries are sorted by column then), and Build() once.
/// Generators and loaders use this instead of materializing
/// vector<vector<SparseEntry>> intermediates.
class CsrBuilder {
 public:
  using Index = SparseMatrix::Index;

  /// Pre-sizes the arrays (optional; exact counts are not required).
  void Reserve(Index rows, Index nnz);

  /// Appends an entry to the open row.
  void Add(Index col, double value);

  /// Value slot of `col` in the open row, or nullptr (linear scan; for
  /// count accumulation as in bag-of-words rows).
  double* FindInOpenRow(Index col);

  /// The open row's entries so far (mutable values for re-weighting).
  Index open_row_nnz() const {
    return static_cast<Index>(col_idx_.size()) - row_ptr_.back();
  }
  const Index* open_row_cols() const {
    return col_idx_.data() + row_ptr_.back();
  }
  double* open_row_values() { return values_.data() + row_ptr_.back(); }

  /// Closes the open row, sorting its entries by column.
  void FinishRow();

  /// Finished rows so far.
  Index rows() const { return static_cast<Index>(row_ptr_.size()) - 1; }

  /// Shifts every column index by `delta` (e.g. 1-based input to 0-based).
  /// Must be called between FinishRow() and Build().
  void ShiftColumns(Index delta);

  /// Consumes the builder. Columns are validated against [0, cols).
  SparseMatrix Build(Index cols) &&;

 private:
  std::vector<Index> row_ptr_ = {0};
  std::vector<Index> col_idx_;
  std::vector<double> values_;
  std::vector<SparseEntry> scratch_;  // FinishRow sort buffer, reused
};

}  // namespace blinkml

#endif  // BLINKML_LINALG_SPARSE_H_
