#include <gtest/gtest.h>

#include "linalg/sparse.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "tests/test_util.h"

namespace blinkml {
namespace {

using testing::ExpectMatrixNear;
using testing::ExpectVectorNear;
using testing::RandomMatrix;
using testing::RandomVector;

SparseMatrix SmallSparse() {
  // [[1, 0, 2],
  //  [0, 0, 0],
  //  [0, 3, 0]]
  std::vector<std::vector<SparseEntry>> rows(3);
  rows[0] = {{2, 2.0}, {0, 1.0}};  // deliberately unsorted
  rows[2] = {{1, 3.0}};
  return SparseMatrix(3, std::move(rows));
}

TEST(SparseMatrix, BasicProperties) {
  const SparseMatrix m = SmallSparse();
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.RowNnz(0), 2);
  EXPECT_EQ(m.RowNnz(1), 0);
  EXPECT_EQ(m.RowNnz(2), 1);
}

TEST(SparseMatrix, ColumnsSortedOnConstruction) {
  const SparseMatrix m = SmallSparse();
  EXPECT_EQ(m.RowCols(0)[0], 0);
  EXPECT_EQ(m.RowCols(0)[1], 2);
  EXPECT_DOUBLE_EQ(m.RowValues(0)[0], 1.0);
  EXPECT_DOUBLE_EQ(m.RowValues(0)[1], 2.0);
}

TEST(SparseMatrix, RejectsOutOfRangeColumn) {
  std::vector<std::vector<SparseEntry>> rows(1);
  rows[0] = {{5, 1.0}};
  EXPECT_THROW(SparseMatrix(3, std::move(rows)), CheckError);
}

TEST(SparseMatrix, ToDenseMatchesLayout) {
  const Matrix d = SmallSparse().ToDense();
  EXPECT_DOUBLE_EQ(d(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(d(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(d(2, 1), 3.0);
}

TEST(SparseMatrix, FromDenseRoundTrip) {
  const Matrix d = SmallSparse().ToDense();
  const SparseMatrix s = SparseMatrix::FromDense(d);
  EXPECT_EQ(s.nnz(), 3);
  ExpectMatrixNear(s.ToDense(), d, 0.0);
}

TEST(SparseMatrix, ApplyMatchesDense) {
  Rng rng(21);
  const SparseMatrix s = SmallSparse();
  const Matrix d = s.ToDense();
  const Vector x = RandomVector(3, &rng);
  ExpectVectorNear(s.Apply(x), MatVec(d, x), 1e-14, "A x");
  ExpectVectorNear(s.ApplyTransposed(x), MatTVec(d, x), 1e-14, "A^T x");
}

TEST(SparseMatrix, RowDotAndAddRowTo) {
  const SparseMatrix s = SmallSparse();
  const Vector x{1.0, 10.0, 100.0};
  EXPECT_DOUBLE_EQ(s.RowDot(0, x), 201.0);
  EXPECT_DOUBLE_EQ(s.RowDot(1, x), 0.0);
  Vector y(3);
  s.AddRowTo(0, 2.0, &y);
  ExpectVectorNear(y, Vector{2.0, 0.0, 4.0}, 0.0);
}

// Row subsets are gathered by Dataset::TakeRows (dataset_test), which
// builds them through the array constructor and takes the arrays back
// with ReleaseArrays.
TEST(SparseMatrix, ReleaseArraysReturnsWhatTheArrayConstructorAdopted) {
  std::vector<SparseMatrix::Index> row_ptr = {0, 2, 2, 3};
  std::vector<SparseMatrix::Index> col_idx = {0, 2, 1};
  std::vector<double> values = {1.0, 2.0, 3.0};
  const double* values_data = values.data();
  const SparseMatrix::Index* cols_data = col_idx.data();
  SparseMatrix s(3, 3, std::move(row_ptr), std::move(col_idx),
                 std::move(values));
  ExpectMatrixNear(s.ToDense(), SmallSparse().ToDense(), 0.0);

  std::move(s).ReleaseArrays(&row_ptr, &col_idx, &values);
  EXPECT_EQ(s.rows(), 0);
  EXPECT_EQ(s.nnz(), 0);
  EXPECT_EQ(row_ptr, (std::vector<SparseMatrix::Index>{0, 2, 2, 3}));
  // The same allocations come back: no copy either way.
  EXPECT_EQ(values.data(), values_data);
  EXPECT_EQ(col_idx.data(), cols_data);
}

TEST(SparseMatrix, ReleaseArraysLeavesAnAliasedStructureToTheAlias) {
  SparseMatrix s = SmallSparse();
  const SparseMatrix scaled = s.ScaleRows(Vector{2.0, 1.0, 1.0});
  std::vector<SparseMatrix::Index> row_ptr = {7};
  std::vector<SparseMatrix::Index> col_idx = {7};
  std::vector<double> values;
  std::move(s).ReleaseArrays(&row_ptr, &col_idx, &values);
  EXPECT_TRUE(row_ptr.empty());
  EXPECT_TRUE(col_idx.empty());
  EXPECT_EQ(values, (std::vector<double>{1.0, 2.0, 3.0}));
  // The alias still reads the structure it shares.
  const Matrix d = scaled.ToDense();
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(d(2, 1), 3.0);
}

TEST(SparseMatrix, EmptyMatrixBehaves) {
  const SparseMatrix s(5, std::vector<std::vector<SparseEntry>>(4));
  EXPECT_EQ(s.nnz(), 0);
  const Vector x(5);
  ExpectVectorNear(s.Apply(x), Vector(4), 0.0);
}

TEST(SparseMatrix, DimensionMismatchThrows) {
  const SparseMatrix s = SmallSparse();
  EXPECT_THROW(s.Apply(Vector(2)), CheckError);
  EXPECT_THROW(s.ApplyTransposed(Vector(2)), CheckError);
}

// Property sweep: random sparse matrices agree with their dense copies.
class SparseRandom : public ::testing::TestWithParam<int> {};

TEST_P(SparseRandom, OperationsMatchDenseOracle) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const int rows = 1 + static_cast<int>(rng.UniformInt(40));
  const int cols = 1 + static_cast<int>(rng.UniformInt(60));
  std::vector<std::vector<SparseEntry>> entries(
      static_cast<std::size_t>(rows));
  for (auto& row : entries) {
    const int nnz = static_cast<int>(rng.UniformInt(
        static_cast<std::uint64_t>(cols / 2 + 1)));
    const auto chosen = SampleWithoutReplacement(cols, nnz, &rng);
    for (const auto c : chosen) row.push_back({c, rng.Normal()});
  }
  const SparseMatrix s(cols, std::move(entries));
  const Matrix d = s.ToDense();
  const Vector x = RandomVector(cols, &rng);
  const Vector y = RandomVector(rows, &rng);
  ExpectVectorNear(s.Apply(x), MatVec(d, x), 1e-12);
  ExpectVectorNear(s.ApplyTransposed(y), MatTVec(d, y), 1e-12);
  for (int r = 0; r < rows; ++r) {
    EXPECT_NEAR(s.RowDot(r, x), Dot(d.Row(r), x), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseRandom, ::testing::Range(0, 10));

// ---------- Structure sharing ----------

TEST(SparseMatrix, ScaleRowsSharesStructureAndMatchesDense) {
  const SparseMatrix s = SmallSparse();
  const Vector coeffs{2.0, -1.0, 0.5};
  const SparseMatrix scaled = s.ScaleRows(coeffs);
  EXPECT_TRUE(scaled.SharesStructureWith(s));
  EXPECT_EQ(scaled.nnz(), s.nnz());
  Matrix expected = s.ToDense();
  for (Matrix::Index r = 0; r < expected.rows(); ++r) {
    for (Matrix::Index c = 0; c < expected.cols(); ++c) {
      expected(r, c) *= coeffs[r];
    }
  }
  ExpectMatrixNear(scaled.ToDense(), expected, 0.0, "diag(c) X");
  // The source's values are untouched (ScaleRows copies values, aliases
  // only the structure).
  EXPECT_DOUBLE_EQ(s.RowValues(0)[0], 1.0);
  EXPECT_THROW(s.ScaleRows(Vector(2)), CheckError);
}

TEST(SparseMatrix, WithValuesSharesStructure) {
  const SparseMatrix s = SmallSparse();
  const SparseMatrix t = s.WithValues({10.0, 20.0, 30.0});
  EXPECT_TRUE(t.SharesStructureWith(s));
  EXPECT_DOUBLE_EQ(t.ToDense()(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(t.ToDense()(0, 2), 20.0);
  EXPECT_THROW(s.WithValues({1.0}), CheckError);
}

TEST(SparseMatrix, IndependentBuildsDoNotShareStructure) {
  const SparseMatrix s = SmallSparse();
  EXPECT_FALSE(SmallSparse().SharesStructureWith(s));
  // Chained rescales all alias the one structure.
  const Vector ones{1.0, 1.0, 1.0};
  EXPECT_TRUE(s.ScaleRows(ones).ScaleRows(ones).SharesStructureWith(s));
}

// Construction, FromDense, and ScaleRows are chunk-parallel;
// their outputs must be identical at any thread count (the per-row output
// ranges are precomputed — runtime/parallel.h determinism contract).
TEST(SparseMatrix, ParallelConstructionIsThreadCountInvariant) {
  Rng rng(314);
  const Matrix dense = [&] {
    Matrix m = RandomMatrix(300, 40, &rng);
    // Sparsify: drop ~2/3 of the entries.
    for (Matrix::Index r = 0; r < m.rows(); ++r) {
      for (Matrix::Index c = 0; c < m.cols(); ++c) {
        if ((r * 31 + c * 7) % 3 != 0) m(r, c) = 0.0;
      }
    }
    return m;
  }();
  Vector coeffs = RandomVector(300, &rng);

  auto build_all = [&] {
    const SparseMatrix s = SparseMatrix::FromDense(dense);
    struct Out {
      Matrix from_dense, scaled;
    };
    return Out{s.ToDense(), s.ScaleRows(coeffs).ToDense()};
  };

  RuntimeOptions serial;
  serial.num_threads = 1;
  decltype(build_all()) reference = [&] {
    RuntimeScope scope(serial);
    return build_all();
  }();

  ThreadPool pool(8);
  for (const int threads : {1, 2, 8}) {
    RuntimeOptions options;
    options.pool = &pool;
    options.num_threads = threads;
    RuntimeScope scope(options);
    const auto parallel = build_all();
    ExpectMatrixNear(parallel.from_dense, reference.from_dense, 0.0);
    ExpectMatrixNear(parallel.scaled, reference.scaled, 0.0);
  }
}

// ---------- CsrBuilder ----------

TEST(CsrBuilder, MatchesVectorOfVectorsConstruction) {
  Rng rng(99);
  std::vector<std::vector<SparseEntry>> rows(25);
  CsrBuilder builder;
  builder.Reserve(25, 25 * 8);
  for (auto& row : rows) {
    const int nnz = static_cast<int>(rng.UniformInt(9));
    const auto chosen = SampleWithoutReplacement(40, nnz, &rng);
    for (const auto c : chosen) {
      const double v = rng.Normal();
      row.push_back({c, v});
      builder.Add(c, v);
    }
    builder.FinishRow();
  }
  const SparseMatrix via_vectors(40, std::move(rows));
  const SparseMatrix via_builder = std::move(builder).Build(40);
  EXPECT_EQ(via_builder.rows(), via_vectors.rows());
  EXPECT_EQ(via_builder.nnz(), via_vectors.nnz());
  ExpectMatrixNear(via_builder.ToDense(), via_vectors.ToDense(), 0.0);
  // Rows came out column-sorted, like the vector-of-vectors constructor.
  for (SparseMatrix::Index r = 0; r < via_builder.rows(); ++r) {
    for (SparseMatrix::Index i = 1; i < via_builder.RowNnz(r); ++i) {
      EXPECT_LT(via_builder.RowCols(r)[i - 1], via_builder.RowCols(r)[i]);
    }
  }
}

TEST(CsrBuilder, FindInOpenRowAccumulatesCounts) {
  CsrBuilder builder;
  builder.Add(3, 1.0);
  builder.Add(1, 1.0);
  ASSERT_NE(builder.FindInOpenRow(3), nullptr);
  *builder.FindInOpenRow(3) += 1.0;
  EXPECT_EQ(builder.FindInOpenRow(2), nullptr);
  EXPECT_EQ(builder.open_row_nnz(), 2);
  builder.FinishRow();
  // The finished row is out of scope for FindInOpenRow.
  EXPECT_EQ(builder.FindInOpenRow(3), nullptr);
  const SparseMatrix m = std::move(builder).Build(5);
  EXPECT_DOUBLE_EQ(m.ToDense()(0, 3), 2.0);
  EXPECT_DOUBLE_EQ(m.ToDense()(0, 1), 1.0);
}

TEST(CsrBuilder, ShiftColumnsAndValidation) {
  CsrBuilder one_based;
  one_based.Add(1, 5.0);
  one_based.Add(3, 7.0);
  one_based.FinishRow();
  one_based.ShiftColumns(-1);
  const SparseMatrix m = std::move(one_based).Build(3);
  EXPECT_DOUBLE_EQ(m.ToDense()(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.ToDense()(0, 2), 7.0);

  CsrBuilder out_of_range;
  out_of_range.Add(5, 1.0);
  out_of_range.FinishRow();
  EXPECT_THROW(std::move(out_of_range).Build(3), CheckError);
}

}  // namespace
}  // namespace blinkml
