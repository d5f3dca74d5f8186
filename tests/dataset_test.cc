#include <algorithm>
#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/generators.h"
#include "linalg/eigen_sym.h"
#include "tests/test_util.h"
#include "util/stats.h"

namespace blinkml {
namespace {

Dataset SmallDense() {
  Matrix x = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}, {7.0, 8.0}};
  Vector y{0.0, 1.0, 1.0, 0.0};
  return Dataset(std::move(x), std::move(y), Task::kBinary);
}

TEST(Dataset, DenseBasics) {
  const Dataset d = SmallDense();
  EXPECT_EQ(d.num_rows(), 4);
  EXPECT_EQ(d.dim(), 2);
  EXPECT_EQ(d.task(), Task::kBinary);
  EXPECT_EQ(d.num_classes(), 2);
  EXPECT_FALSE(d.is_sparse());
  EXPECT_TRUE(d.has_labels());
  EXPECT_DOUBLE_EQ(d.label(2), 1.0);
  EXPECT_THROW(d.sparse(), CheckError);
}

TEST(Dataset, SparseBasics) {
  std::vector<std::vector<SparseEntry>> rows(2);
  rows[0] = {{0, 1.0}};
  rows[1] = {{2, 3.0}};
  Dataset d(SparseMatrix(3, std::move(rows)), Vector{1.0, 0.0}, Task::kBinary);
  EXPECT_TRUE(d.is_sparse());
  EXPECT_EQ(d.dim(), 3);
  EXPECT_THROW(d.dense(), CheckError);
}

TEST(Dataset, LabelValidation) {
  Matrix x(2, 1);
  EXPECT_THROW(Dataset(x, Vector{0.0, 2.0}, Task::kBinary), CheckError);
  EXPECT_THROW(Dataset(x, Vector{0.0}, Task::kBinary), CheckError);
  EXPECT_THROW(Dataset(x, Vector{0.5, 1.0}, Task::kMulticlass, 3),
               CheckError);
  EXPECT_THROW(Dataset(x, Vector{0.0, 3.0}, Task::kMulticlass, 3),
               CheckError);
  EXPECT_NO_THROW(Dataset(x, Vector{0.0, 2.0}, Task::kMulticlass, 3));
  EXPECT_NO_THROW(Dataset(x, Vector{-1.5, 2.5}, Task::kRegression));
  // Unsupervised datasets need no labels at all.
  EXPECT_NO_THROW(Dataset(x, Vector(), Task::kUnsupervised));
}

TEST(Dataset, RowDotAndAddRowTo) {
  const Dataset d = SmallDense();
  const double theta[2] = {1.0, 10.0};
  EXPECT_DOUBLE_EQ(d.RowDot(1, theta), 43.0);
  Vector acc(2);
  d.AddRowTo(0, 2.0, acc.data());
  testing::ExpectVectorNear(acc, Vector{2.0, 4.0}, 0.0);
}

TEST(Dataset, TakeRowsPreservesLabelsAndOrder) {
  const Dataset d = SmallDense();
  const Dataset t = d.TakeRows({3, 0});
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_DOUBLE_EQ(t.dense()(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(t.label(0), 0.0);
  EXPECT_DOUBLE_EQ(t.dense()(1, 0), 1.0);
  EXPECT_THROW(d.TakeRows({4}), CheckError);
}

TEST(Dataset, SparseTakeRowsSelectsAndReorders) {
  std::vector<std::vector<SparseEntry>> rows(3);
  rows[0] = {{2, 2.0}, {0, 1.0}};
  rows[2] = {{1, 3.0}};
  const Dataset d(SparseMatrix(3, std::move(rows)), Vector{1.0, 0.0, 1.0},
                  Task::kBinary);
  const Dataset t = d.TakeRows({2, 0});
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.dim(), 3);
  const Matrix x = t.sparse().ToDense();
  EXPECT_DOUBLE_EQ(x(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(x(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(x(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(t.label(0), 1.0);
  EXPECT_DOUBLE_EQ(t.label(1), 1.0);
  // A gathered subset owns its structure.
  EXPECT_FALSE(t.sparse().SharesStructureWith(d.sparse()));
  EXPECT_THROW(d.TakeRows({3}), CheckError);
}

// EXPECTs two datasets bitwise equal: shape, features and labels.
void ExpectSameBytes(const Dataset& a, const Dataset& b, const char* what) {
  ASSERT_EQ(a.is_sparse(), b.is_sparse()) << what;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.dim(), b.dim()) << what;
  ASSERT_EQ(a.labels().size(), b.labels().size()) << what;
  EXPECT_EQ(std::memcmp(a.labels().data(), b.labels().data(),
                        a.labels().values().size() * sizeof(double)),
            0)
      << what;
  if (!a.is_sparse()) {
    EXPECT_EQ(std::memcmp(a.dense().data(), b.dense().data(),
                          static_cast<std::size_t>(a.dense().size()) *
                              sizeof(double)),
              0)
        << what;
    return;
  }
  ASSERT_EQ(a.sparse().nnz(), b.sparse().nnz()) << what;
  for (Dataset::Index r = 0; r < a.num_rows(); ++r) {
    const auto n = a.sparse().RowNnz(r);
    ASSERT_EQ(n, b.sparse().RowNnz(r)) << what << " row " << r;
    EXPECT_EQ(std::memcmp(a.sparse().RowCols(r), b.sparse().RowCols(r),
                          static_cast<std::size_t>(n) *
                              sizeof(SparseMatrix::Index)),
              0)
        << what << " row " << r;
    EXPECT_EQ(std::memcmp(a.sparse().RowValues(r), b.sparse().RowValues(r),
                          static_cast<std::size_t>(n) * sizeof(double)),
              0)
        << what << " row " << r;
  }
}

// A refill of kept storage writes the bytes a gather into fresh storage
// writes, whatever subset the storage held before. Storage that fits is
// refilled in place; storage that falls short grows to max(need,
// min(2 x capacity, source size)).
TEST(Dataset, RefillOfKeptStorageEqualsFreshTakeRows) {
  using Index = Dataset::Index;
  constexpr Index kRows = 2000;
  for (const bool sparse : {false, true}) {
    const Dataset d = sparse ? MakeSyntheticLogistic(kRows, 300, 5, 0.05)
                             : MakeSyntheticLogistic(kRows, 20, 5);
    Rng rng(8);
    const std::vector<Index> small = SampleWithoutReplacement(kRows, 300, &rng);
    const std::vector<Index> mid = SampleWithoutReplacement(kRows, 400, &rng);
    const std::vector<Index> big = SampleWithoutReplacement(kRows, 900, &rng);
    const std::vector<Index> repeated = {5, 5, kRows - 1, 0, 5};
    struct Step {
      const std::vector<Index>* rows;
      bool fits;  // the kept storage already holds these rows
    };
    const Step steps[] = {{&small, false}, {&mid, false},     {&small, true},
                          {&big, false},   {&repeated, true}, {&mid, true}};
    RowStorage storage;
    for (const Step& step : steps) {
      const Dataset fresh = d.TakeRows(*step.rows);
      const std::uint64_t kept_bytes = storage.CapacityBytes();
      const std::size_t kept_values = storage.values.capacity();
      const double* kept = storage.values.data();
      Dataset refilled = d.TakeRows(*step.rows, std::move(storage));
      ExpectSameBytes(refilled, fresh, sparse ? "sparse" : "dense");
      storage = std::move(refilled).ReleaseStorage();
      EXPECT_EQ(refilled.num_rows(), 0);
      if (step.fits) {
        EXPECT_EQ(storage.CapacityBytes(), kept_bytes);
        EXPECT_EQ(storage.values.data(), kept);
      } else if (!sparse) {
        const std::size_t need = step.rows->size() * 20;
        EXPECT_EQ(storage.values.capacity(),
                  std::max(need, std::min(2 * kept_values,
                                          static_cast<std::size_t>(kRows) *
                                              20)));
      }
    }
  }
  // Geometric growth stops at the source's size unless the rows need more.
  const Dataset d = MakeSyntheticLogistic(kRows, 20, 5);
  std::vector<Index> rows(1200);
  for (Index i = 0; i < 1200; ++i) rows[static_cast<std::size_t>(i)] = i;
  RowStorage storage = d.TakeRows(rows).ReleaseStorage();
  rows.push_back(1200);
  storage = d.TakeRows(rows, std::move(storage)).ReleaseStorage();
  EXPECT_EQ(storage.values.capacity(), static_cast<std::size_t>(kRows) * 20);
  rows.assign(2100, 7);
  storage = d.TakeRows(rows, std::move(storage)).ReleaseStorage();
  EXPECT_EQ(storage.values.capacity(), static_cast<std::size_t>(2100) * 20);
}

TEST(RowStoragePool, LendsItsLargestStorageAndCountsWhatItKeeps) {
  const Dataset d = MakeSyntheticLogistic(500, 10, 3);
  std::vector<Dataset::Index> rows(100);
  for (Dataset::Index i = 0; i < 100; ++i) {
    rows[static_cast<std::size_t>(i)] = i;
  }
  RowStorage small = d.TakeRows({1, 2, 3}).ReleaseStorage();
  RowStorage large = d.TakeRows(rows).ReleaseStorage();
  const std::uint64_t small_bytes = small.CapacityBytes();
  const std::uint64_t large_bytes = large.CapacityBytes();
  ASSERT_LT(small_bytes, large_bytes);

  RowStoragePool pool;
  EXPECT_EQ(pool.Borrow().CapacityBytes(), 0u);
  pool.Return(std::move(small));
  pool.Return(std::move(large));
  pool.Return(RowStorage());  // nothing to keep
  EXPECT_EQ(pool.kept_count(), 2);
  EXPECT_EQ(pool.kept_bytes(), small_bytes + large_bytes);

  RowStorage lent = pool.Borrow();
  EXPECT_EQ(lent.CapacityBytes(), large_bytes);
  EXPECT_EQ(pool.kept_count(), 1);
  EXPECT_EQ(pool.kept_bytes(), small_bytes);
  pool.Return(std::move(lent));
  EXPECT_EQ(pool.kept_bytes(), small_bytes + large_bytes);
}

TEST(Dataset, SampleRowsIsWithoutReplacement) {
  Rng rng(30);
  const Dataset d = MakeSyntheticLinear(100, 3, /*seed=*/1);
  const Dataset s = d.SampleRows(100, &rng);  // full-size sample
  EXPECT_EQ(s.num_rows(), 100);
  // All rows distinct: the first feature of MakeSyntheticLinear is a.s.
  // unique per row.
  std::set<double> firsts;
  for (Dataset::Index i = 0; i < s.num_rows(); ++i) {
    firsts.insert(s.dense()(i, 0));
  }
  EXPECT_EQ(firsts.size(), 100u);
  EXPECT_THROW(d.SampleRows(101, &rng), CheckError);
}

TEST(Dataset, SplitPartitionsRows) {
  Rng rng(31);
  const Dataset d = MakeSyntheticLinear(200, 2, /*seed=*/2);
  const auto [a, b] = d.Split(0.3, &rng);
  EXPECT_EQ(a.num_rows(), 60);
  EXPECT_EQ(b.num_rows(), 140);
  // Disjoint: no shared first-feature values.
  std::set<double> a_firsts;
  for (Dataset::Index i = 0; i < a.num_rows(); ++i) {
    a_firsts.insert(a.dense()(i, 0));
  }
  for (Dataset::Index i = 0; i < b.num_rows(); ++i) {
    EXPECT_EQ(a_firsts.count(b.dense()(i, 0)), 0u);
  }
}

// ---------- Generators ----------

TEST(Generators, GasLikeShapeAndTask) {
  const Dataset d = MakeGasLike(500, 1);
  EXPECT_EQ(d.num_rows(), 500);
  EXPECT_EQ(d.dim(), 57);
  EXPECT_EQ(d.task(), Task::kRegression);
  EXPECT_FALSE(d.is_sparse());
}

TEST(Generators, GasLikeNeighborsCorrelated) {
  // AR(1) design: adjacent features correlate ~0.6, distant ones ~0.
  const Dataset d = MakeGasLike(4000, 2);
  auto corr = [&](int col_a, int col_b) {
    std::vector<double> a, b;
    for (Dataset::Index i = 0; i < d.num_rows(); ++i) {
      a.push_back(d.dense()(i, col_a));
      b.push_back(d.dense()(i, col_b));
    }
    const double ma = Mean(a), mb = Mean(b);
    double cov = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      cov += (a[i] - ma) * (b[i] - mb);
    }
    return cov / (a.size() * StdDev(a) * StdDev(b));
  };
  EXPECT_NEAR(corr(10, 11), 0.6, 0.08);
  EXPECT_NEAR(corr(10, 40), 0.0, 0.08);
}

TEST(Generators, PowerLikeShape) {
  const Dataset d = MakePowerLike(300, 3);
  EXPECT_EQ(d.dim(), 114);
  EXPECT_EQ(d.task(), Task::kRegression);
}

TEST(Generators, HiggsLikeBalancedBinary) {
  const Dataset d = MakeHiggsLike(4000, 4);
  EXPECT_EQ(d.dim(), 28);
  EXPECT_EQ(d.task(), Task::kBinary);
  double positives = 0;
  for (Dataset::Index i = 0; i < d.num_rows(); ++i) positives += d.label(i);
  const double rate = positives / static_cast<double>(d.num_rows());
  EXPECT_GT(rate, 0.30);
  EXPECT_LT(rate, 0.70);
}

TEST(Generators, CriteoLikeSparseRareClicks) {
  const Dataset d = MakeCriteoLike(3000, 5, /*dim=*/2000, /*nnz_per_row=*/30);
  EXPECT_TRUE(d.is_sparse());
  EXPECT_EQ(d.dim(), 2000);
  EXPECT_EQ(d.task(), Task::kBinary);
  // Sparse: far fewer nonzeros than dense.
  EXPECT_LE(d.sparse().nnz(), 3000 * 30);
  // CTR-like positive rate: the minority class, but nonzero (the flip
  // noise floor raises the rate above raw click probability).
  double positives = 0;
  for (Dataset::Index i = 0; i < d.num_rows(); ++i) positives += d.label(i);
  const double rate = positives / static_cast<double>(d.num_rows());
  EXPECT_GT(rate, 0.002);
  EXPECT_LT(rate, 0.40);
}

TEST(Generators, MnistLikeClassesAndPixelRange) {
  const Dataset d = MakeMnistLike(600, 6, /*dim=*/144, /*num_classes=*/10);
  EXPECT_EQ(d.dim(), 144);
  EXPECT_EQ(d.num_classes(), 10);
  std::set<double> labels;
  double max_pixel = -1.0, min_pixel = 2.0;
  for (Dataset::Index i = 0; i < d.num_rows(); ++i) {
    labels.insert(d.label(i));
    for (Dataset::Index j = 0; j < d.dim(); ++j) {
      max_pixel = std::max(max_pixel, d.dense()(i, j));
      min_pixel = std::min(min_pixel, d.dense()(i, j));
    }
  }
  EXPECT_GE(labels.size(), 8u);  // nearly all classes appear
  EXPECT_GE(min_pixel, 0.0);
  EXPECT_LE(max_pixel, 1.5);
}

TEST(Generators, MnistLikeRejectsNonSquareDim) {
  EXPECT_THROW(MakeMnistLike(10, 1, /*dim=*/10), CheckError);
}

TEST(Generators, YelpLikeSparseFiveClasses) {
  const Dataset d = MakeYelpLike(300, 7, /*dim=*/500);
  EXPECT_TRUE(d.is_sparse());
  EXPECT_EQ(d.num_classes(), 5);
  EXPECT_EQ(d.task(), Task::kMulticlass);
  // Bag-of-words: log1p counts are positive.
  for (SparseMatrix::Index i = 0; i < d.sparse().nnz() && i < 100; ++i) {
    // spot-check via row iteration
  }
  EXPECT_GT(d.sparse().nnz(), 0);
}

TEST(Generators, SyntheticLogisticDenseAndSparse) {
  const Dataset dense = MakeSyntheticLogistic(200, 10, 8);
  EXPECT_FALSE(dense.is_sparse());
  const Dataset sparse = MakeSyntheticLogistic(200, 50, 9, /*sparsity=*/0.1);
  EXPECT_TRUE(sparse.is_sparse());
  EXPECT_EQ(sparse.sparse().RowNnz(0), 5);  // 10% of 50
}

TEST(Generators, SyntheticMulticlassSeparableWithWideSpread) {
  const Dataset d = MakeSyntheticMulticlass(500, 5, 3, 10, /*spread=*/5.0);
  EXPECT_EQ(d.num_classes(), 3);
  EXPECT_EQ(d.task(), Task::kMulticlass);
}

TEST(Generators, LowRankHasDecayingSpectrum) {
  const Dataset d = MakeSyntheticLowRank(2000, 12, 3, 11, /*noise=*/0.1);
  EXPECT_EQ(d.task(), Task::kUnsupervised);
  EXPECT_FALSE(d.has_labels());
  // Top-3 sample covariance eigenvalues should dominate the rest.
  Matrix s(12, 12);
  for (Dataset::Index i = 0; i < d.num_rows(); ++i) {
    for (int a = 0; a < 12; ++a) {
      for (int b = 0; b < 12; ++b) {
        s(a, b) += d.dense()(i, a) * d.dense()(i, b);
      }
    }
  }
  s *= 1.0 / 2000.0;
  const auto eig = EigenSymValues(s);
  ASSERT_TRUE(eig.ok());
  const Vector& w = *eig;  // ascending
  EXPECT_GT(w[11], 10.0 * w[8]);  // rank-3 signal above the noise floor
}

TEST(Generators, DeterministicGivenSeed) {
  const Dataset a = MakeHiggsLike(50, 77);
  const Dataset b = MakeHiggsLike(50, 77);
  EXPECT_EQ(MaxAbsDiff(a.dense(), b.dense()), 0.0);
  for (Dataset::Index i = 0; i < a.num_rows(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i));
  }
  const Dataset c = MakeHiggsLike(50, 78);
  EXPECT_GT(MaxAbsDiff(a.dense(), c.dense()), 0.0);
}

}  // namespace
}  // namespace blinkml
