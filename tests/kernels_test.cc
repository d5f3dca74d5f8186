// Compute-kernel layer (linalg/kernels.h): kernel-vs-reference
// equivalence (tests/reference/), bitwise thread-count invariance, the
// tiled sparse Gram's heavy-row path, the batched-margin consistency
// invariant, and degenerate shapes.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <vector>

#include <gtest/gtest.h>

#include "core/statistics.h"
#include "data/generators.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "models/linear_regression.h"
#include "models/logistic_regression.h"
#include "models/model_spec.h"
#include "models/poisson_regression.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "tests/reference/reference.h"
#include "tests/test_util.h"

namespace blinkml {
namespace {

using testing::RandomMatrix;
using testing::RandomVector;
using testing::SparseBinaryData;

Vector Flatten(const Matrix& m) {
  Vector v(m.size());
  std::copy(m.data(), m.data() + m.size(), v.data());
  return v;
}

// A sparse matrix with deliberately mixed row weights: empty rows, light
// rows (below the heavy-tile threshold), and heavy rows (hundreds of
// nonzeros), so both SparseGram paths and their seam are exercised.
SparseMatrix MixedRowMatrix(SparseMatrix::Index rows,
                            SparseMatrix::Index cols, std::uint64_t seed) {
  Rng rng(seed);
  CsrBuilder builder;
  for (SparseMatrix::Index r = 0; r < rows; ++r) {
    const int kind = static_cast<int>(r % 4);
    SparseMatrix::Index nnz = 0;
    if (kind == 1) nnz = 3;                         // light
    if (kind == 2) nnz = 40;                        // mid
    if (kind == 3) nnz = std::min<SparseMatrix::Index>(cols, 300);  // heavy
    std::vector<bool> used(static_cast<std::size_t>(cols), false);
    for (SparseMatrix::Index e = 0; e < nnz; ++e) {
      SparseMatrix::Index c =
          static_cast<SparseMatrix::Index>(rng.Uniform(0.0, 1.0) *
                                           static_cast<double>(cols));
      c = std::min(c, cols - 1);
      if (used[static_cast<std::size_t>(c)]) continue;
      used[static_cast<std::size_t>(c)] = true;
      builder.Add(c, rng.Normal(0.0, 1.0));
    }
    builder.FinishRow();
  }
  return std::move(builder).Build(cols);
}

// ---------- Dense kernels vs the reference loops ----------

TEST(DenseKernels, MatchOracleWithinTolerance) {
  Rng rng(3);
  // Off-block sizes on purpose: tails of every tile level.
  const Matrix a = RandomMatrix(131, 67, &rng);
  const Matrix b = RandomMatrix(67, 45, &rng);
  const Vector x = RandomVector(67, &rng);
  const Vector y = RandomVector(131, &rng);

  EXPECT_LE(MaxRelDiff(GramRows(a), reference::GramRows(a)), 1e-12);
  EXPECT_LE(MaxRelDiff(GramCols(a), reference::GramCols(a)), 1e-12);
  EXPECT_LE(MaxRelDiff(MatMul(a, b), reference::MatMul(a, b)), 1e-12);
  EXPECT_LE(MaxRelDiff(MatVec(a, x), reference::MatVec(a, x)), 1e-12);
  EXPECT_LE(MaxRelDiff(MatTVec(a, y), reference::MatTVec(a, y)), 1e-12);
}

TEST(DenseKernels, GramSymmetryAndMultiBlockShapes) {
  Rng rng(11);
  // > 2 blocks in each direction, odd tails.
  const Matrix a = RandomMatrix(201, 130, &rng);
  const Matrix g = GramRows(a);
  for (Matrix::Index i = 0; i < g.rows(); ++i) {
    for (Matrix::Index j = i + 1; j < g.cols(); ++j) {
      EXPECT_EQ(g(i, j), g(j, i)) << i << "," << j;
    }
  }
  EXPECT_LE(MaxRelDiff(g, reference::GramRows(a)), 1e-12);
}

TEST(DenseKernels, ThreadCountInvariance) {
  Rng rng(5);
  const Matrix a = RandomMatrix(130, 70, &rng);
  const Matrix b = RandomMatrix(70, 31, &rng);
  const Vector x = RandomVector(70, &rng);
  const Vector y = RandomVector(130, &rng);
  testing::ExpectThreadCountInvariant([&] { return Flatten(GramRows(a)); },
                                      {1, 2, 8}, "GramRows");
  testing::ExpectThreadCountInvariant([&] { return Flatten(GramCols(a)); },
                                      {1, 2, 8}, "GramCols");
  testing::ExpectThreadCountInvariant([&] { return Flatten(MatMul(a, b)); },
                                      {1, 2, 8}, "MatMul");
  testing::ExpectThreadCountInvariant([&] { return MatVec(a, x); }, {1, 2, 8},
                                      "MatVec");
  testing::ExpectThreadCountInvariant([&] { return MatTVec(a, y); }, {1, 2, 8},
                                      "MatTVec");
}

// ---------- Sparse kernels ----------

TEST(SparseKernels, TiledGramMatchesMergeOnHeavyAndMixedRows) {
  // Heavy rows: every tile takes the scatter/gather path.
  const Dataset heavy = MakeSyntheticLogistic(90, 3000, /*seed=*/7,
                                              /*sparsity=*/0.08, /*noise=*/0.1);
  // Mixed: empty/light/mid/heavy rows interleaved — tiles straddle the
  // heavy threshold and empty rows produce zero Gram rows.
  const SparseMatrix mixed = MixedRowMatrix(61, 2000, 13);

  for (const SparseMatrix* m : {&heavy.sparse(), &mixed}) {
    const Matrix tiled = SparseGradientGram(*m);
    const Matrix merge = reference::SparseGram(*m);
    // The gather accumulates the same products in the same column order as
    // the merge (non-matching columns contribute exact zeros), so the two
    // paths agree bitwise, not just to rounding.
    EXPECT_EQ(MaxAbsDiff(tiled, merge), 0.0);
  }
}

TEST(SparseKernels, GramEmptyRowsYieldZeroRows) {
  const SparseMatrix mixed = MixedRowMatrix(17, 500, 3);  // rows 0,4,8,... empty
  const Matrix g = SparseGradientGram(mixed);
  for (SparseMatrix::Index r = 0; r < mixed.rows(); r += 4) {
    for (Matrix::Index j = 0; j < g.cols(); ++j) {
      EXPECT_EQ(g(r, j), 0.0);
      EXPECT_EQ(g(j, r), 0.0);
    }
  }
}

TEST(SparseKernels, ApplyAndTransposedMatchOracle) {
  const SparseMatrix m = MixedRowMatrix(83, 700, 17);
  Rng rng(2);
  const Vector x = RandomVector(700, &rng);
  const Vector y = RandomVector(83, &rng);
  EXPECT_LE(MaxRelDiff(m.Apply(x), reference::Apply(m, x)), 1e-12);
  EXPECT_LE(MaxRelDiff(m.ApplyTransposed(y), reference::ApplyTransposed(m, y)),
            1e-12);
  testing::ExpectThreadCountInvariant([&] { return m.Apply(x); }, {1, 2, 8},
                                      "Apply");
  testing::ExpectThreadCountInvariant([&] { return m.ApplyTransposed(y); },
                                      {1, 2, 8}, "ApplyTransposed");
}

TEST(SparseKernels, ApplyTransposedMultiBitwiseEqualsPerColumn) {
  const SparseMatrix m = MixedRowMatrix(60, 400, 23);
  Rng rng(9);
  // 11 columns: one full kMultiVec group plus a tail group.
  Matrix v(60, 11);
  for (Matrix::Index i = 0; i < v.size(); ++i) {
    v.data()[i] = rng.Normal(0.0, 1.0);
  }
  const Matrix multi = kernels::ApplyTransposedMulti(m, v);
  ASSERT_EQ(multi.rows(), 400);
  ASSERT_EQ(multi.cols(), 11);
  for (Matrix::Index c = 0; c < v.cols(); ++c) {
    const Vector naive = reference::ApplyTransposed(m, v.Col(c));
    for (Matrix::Index j = 0; j < multi.rows(); ++j) {
      ASSERT_EQ(multi(j, c), naive[j]) << "col " << c << " row " << j;
    }
  }
  testing::ExpectThreadCountInvariant(
      [&] { return Flatten(kernels::ApplyTransposedMulti(m, v)); }, {1, 2, 8},
      "ApplyTransposedMulti");
}

// ---------- Runtime ISA scopes ----------

// Runs fn with the given ISA forced via the scope.
template <typename Fn>
auto AtIsa(KernelIsa isa, const Fn& fn) {
  RuntimeOptions options;
  options.kernel_isa = isa;
  RuntimeScope scope(options);
  return fn();
}

// True when forcing kAvx2 actually resolves to kAvx2 (i.e. the CPU has
// AVX2+FMA); on other machines the scope clamps back to kScalar and the
// AVX2 legs of these tests are vacuous, so the callers skip them.
bool Avx2Available() {
  return AtIsa(KernelIsa::kAvx2,
               [] { return CurrentKernelIsa() == KernelIsa::kAvx2; });
}

std::vector<KernelIsa> IsasToTest() {
  std::vector<KernelIsa> isas = {KernelIsa::kScalar};
  if (Avx2Available()) isas.push_back(KernelIsa::kAvx2);
  return isas;
}

const char* IsaName(KernelIsa isa) {
  return isa == KernelIsa::kAvx2 ? "avx2" : "scalar";
}

// ---------- Batched margins: the scoring consistency invariant ----------

TEST(BatchMargins, ColumnsBitwiseEqualSingleMarginPasses) {
  const Dataset sparse = SparseBinaryData(120, 900, /*seed=*/5,
                                          /*nnz_per_row=*/25);
  const Dataset dense = testing::SmallDenseLogistic(150, 40, /*seed=*/6);
  // d = 41: every dot ends in a one-element tail after the unrolled chains.
  const Dataset dense_tail = testing::SmallDenseLogistic(150, 41, /*seed=*/7);
  for (const Dataset* data : {&sparse, &dense, &dense_tail}) {
    // Group widths across a full group + tails: 1, 3, 8, 11 candidates.
    for (const int k : {1, 3, 8, 11}) {
      std::vector<Vector> store;
      for (int t = 0; t < k; ++t) {
        store.push_back(testing::Trainedish(*data, 100 + t));
      }
      std::vector<const Vector*> thetas;
      for (const Vector& v : store) thetas.push_back(&v);
      std::vector<Matrix> by_isa;
      for (const KernelIsa isa : IsasToTest()) {
        const Matrix batch =
            AtIsa(isa, [&] { return BatchMargins(*data, thetas); });
        ASSERT_EQ(batch.cols(), k);
        for (int t = 0; t < k; ++t) {
          // The same margin kernel Predict/GlmPredict run (PanelMargins).
          const Vector single = AtIsa(isa, [&] {
            Vector margins(data->num_rows());
            if (data->is_sparse()) {
              kernels::SparseMargins(data->sparse(), store[t].data(), 0,
                                     data->num_rows(), margins.data());
            } else {
              kernels::DenseMargins(data->dense(), store[t].data(), 0,
                                    data->num_rows(), margins.data());
            }
            return margins;
          });
          for (Dataset::Index i = 0; i < data->num_rows(); ++i) {
            ASSERT_EQ(batch(i, t), single[i])
                << (data->is_sparse() ? "sparse" : "dense") << " d="
                << data->dim() << " " << IsaName(isa) << " k=" << k
                << " theta " << t << " row " << i;
          }
        }
        by_isa.push_back(batch);
      }
      // The AVX2 rows keep the scalar association: same bits.
      for (std::size_t o = 1; o < by_isa.size(); ++o) {
        ASSERT_EQ(std::memcmp(by_isa[o].data(), by_isa[0].data(),
                              sizeof(double) * by_isa[0].size()),
                  0)
            << "d=" << data->dim() << " k=" << k;
      }
    }
  }
}

// Batched candidate scoring serves a same-type group from one PredictBatch
// matrix with no per-candidate check, so every column of every GLM's
// PredictBatch must equal its Predict bitwise at every ISA.
TEST(BatchMargins, PredictBatchColumnsMatchPredict) {
  const Dataset sparse = SparseBinaryData(200, 1200, /*seed=*/8,
                                          /*nnz_per_row=*/30);
  const Dataset dense = testing::SmallDenseLogistic(200, 40, /*seed=*/9);
  // d = 41: every dot ends in a one-element tail after the unrolled chains.
  const Dataset dense_tail = testing::SmallDenseLogistic(200, 41, /*seed=*/10);
  const LinearRegressionSpec linear(1e-3);
  const LogisticRegressionSpec logistic(1e-3);
  const PoissonRegressionSpec poisson(1e-3);
  for (const ModelSpec* spec :
       std::initializer_list<const ModelSpec*>{&linear, &logistic, &poisson}) {
    for (const Dataset* data : {&sparse, &dense, &dense_tail}) {
      // 11 candidates: a full group of kernels::kMultiVec plus a tail.
      std::vector<Vector> store;
      for (int t = 0; t < 11; ++t) {
        store.push_back(testing::Trainedish(*data, 40 + t));
      }
      std::vector<const Vector*> thetas;
      for (const Vector& v : store) thetas.push_back(&v);
      for (const KernelIsa isa : IsasToTest()) {
        const Matrix predictions = AtIsa(isa, [&] {
          Matrix out;
          spec->PredictBatch(thetas, *data, &out);
          return out;
        });
        ASSERT_EQ(predictions.cols(), 11);
        for (int t = 0; t < 11; ++t) {
          const Vector single = AtIsa(isa, [&] {
            Vector out;
            spec->Predict(store[t], *data, &out);
            return out;
          });
          for (Dataset::Index i = 0; i < data->num_rows(); ++i) {
            ASSERT_EQ(predictions(i, t), single[i])
                << spec->name() << (data->is_sparse() ? " sparse" : " dense")
                << " d=" << data->dim() << " " << IsaName(isa) << " theta "
                << t << " row " << i;
          }
        }
      }
    }
  }
}

// ---------- Fused GLM passes ----------

TEST(GlmKernels, FusedLossAndGradientMatchNaive) {
  const Dataset sparse = SparseBinaryData(300, 800, /*seed=*/4,
                                          /*nnz_per_row=*/20);
  const Dataset dense = testing::SmallDenseLogistic(400, 30, /*seed=*/9);
  const LogisticRegressionSpec spec(1e-3);
  for (const Dataset* data : {&sparse, &dense}) {
    const Vector theta = testing::Trainedish(*data, 21);
    Vector g_naive, g_blocked;
    const double f_naive = reference::LogisticObjectiveAndGradient(
        theta, *data, spec.l2(), &g_naive);
    const double f_blocked =
        spec.ObjectiveAndGradient(theta, *data, &g_blocked);
    EXPECT_NEAR(f_blocked, f_naive, 1e-12 * std::max(1.0, std::fabs(f_naive)));
    EXPECT_LE(MaxRelDiff(g_blocked, g_naive), 1e-11);
    // Value-only pass agrees with the fused pass bitwise.
    EXPECT_EQ(spec.Objective(theta, *data), f_blocked);
    testing::ExpectThreadCountInvariant(
        [&] {
          Vector g;
          spec.ObjectiveAndGradient(theta, *data, &g);
          return g;
        },
        {1, 2, 8}, "ObjectiveAndGradient");
  }
}

// ---------- Degenerate shapes ----------

TEST(KernelDegenerateShapes, SingleColumnSingleRowAndEmpty) {
  Rng rng(31);
  // p = 1: one-column matrix.
  const Matrix col = RandomMatrix(37, 1, &rng);
  EXPECT_LE(MaxRelDiff(GramRows(col), reference::GramRows(col)), 1e-12);
  EXPECT_LE(MaxRelDiff(GramCols(col), reference::GramCols(col)), 1e-12);
  // n_s = 1: single-row matrix.
  const Matrix row = RandomMatrix(1, 29, &rng);
  EXPECT_LE(MaxRelDiff(GramRows(row), reference::GramRows(row)), 1e-12);
  const Vector x = RandomVector(29, &rng);
  EXPECT_LE(MaxRelDiff(MatVec(row, x), reference::MatVec(row, x)), 1e-12);

  // Sparse single row / all-empty rows.
  CsrBuilder one_row;
  one_row.Add(3, 2.0);
  one_row.Add(7, -1.5);
  one_row.FinishRow();
  const SparseMatrix single = std::move(one_row).Build(10);
  const Matrix g1 = SparseGradientGram(single);
  ASSERT_EQ(g1.rows(), 1);
  EXPECT_DOUBLE_EQ(g1(0, 0), 2.0 * 2.0 + 1.5 * 1.5);

  CsrBuilder empties;
  for (int r = 0; r < 6; ++r) empties.FinishRow();
  const SparseMatrix empty = std::move(empties).Build(10);
  const Matrix g0 = SparseGradientGram(empty);
  EXPECT_EQ(g0.MaxAbs(), 0.0);
  const Vector applied = empty.Apply(Vector(10));
  EXPECT_EQ(applied.size(), 6);
  const Vector applied_t = empty.ApplyTransposed(Vector(6));
  EXPECT_EQ(applied_t.size(), 10);
}

TEST(KernelDegenerateShapes, ZeroRowTransposedAppliesKeepTheOutputShape) {
  // The reduce-shaped kernels must return the size-cols zero vector for a
  // 0-row operand, exactly as the reference loops do (an empty chunk
  // layout must not collapse the output to size 0).
  const Matrix dense0(0, 5);
  const Vector t = MatTVec(dense0, Vector(0));
  EXPECT_EQ(t.size(), 5);
  EXPECT_EQ(NormInf(t), 0.0);
  CsrBuilder none;
  const SparseMatrix sparse0 = std::move(none).Build(7);
  const Vector st = sparse0.ApplyTransposed(Vector(0));
  EXPECT_EQ(st.size(), 7);
  EXPECT_EQ(NormInf(st), 0.0);
}

// ---------- Multi-z kernels: per-column bitwise contract ----------

TEST(MultiZKernels, MatVecMultiBitwiseEqualsPerColumn) {
  Rng rng(51);
  const Matrix a = RandomMatrix(67, 19, &rng);
  for (const KernelIsa isa : IsasToTest()) {
    // Widths across a full kMultiVec group and odd tails, plus rank 1.
    for (const Matrix::Index width : {1, 3, 8, 11}) {
      const Matrix zs = RandomMatrix(width, 19, &rng);
      const Matrix multi =
          AtIsa(isa, [&] { return kernels::MatVecMulti(a, zs); });
      ASSERT_EQ(multi.rows(), a.rows());
      ASSERT_EQ(multi.cols(), width);
      for (Matrix::Index b = 0; b < width; ++b) {
        const Vector single =
            AtIsa(isa, [&] { return MatVec(a, zs.Row(b)); });
        for (Matrix::Index i = 0; i < multi.rows(); ++i) {
          ASSERT_EQ(multi(i, b), single[i])
              << IsaName(isa) << " width=" << width << " col " << b;
        }
      }
    }
  }
  // Rank-1 factor (a single column) hits every tail path at once.
  const Matrix a1 = RandomMatrix(40, 1, &rng);
  const Matrix z1 = RandomMatrix(5, 1, &rng);
  const Matrix multi1 = kernels::MatVecMulti(a1, z1);
  for (Matrix::Index b = 0; b < 5; ++b) {
    const Vector single = MatVec(a1, z1.Row(b));
    for (Matrix::Index i = 0; i < multi1.rows(); ++i) {
      ASSERT_EQ(multi1(i, b), single[i]);
    }
  }
  const Matrix zs = RandomMatrix(11, 19, &rng);
  testing::ExpectThreadCountInvariant(
      [&] { return Flatten(kernels::MatVecMulti(a, zs)); }, {1, 2, 8},
      "MatVecMulti");
}

TEST(MultiZKernels, MatTVecMultiBitwiseEqualsPerColumn) {
  Rng rng(52);
  const Matrix a = RandomMatrix(60, 23, &rng);
  for (const KernelIsa isa : IsasToTest()) {
    for (const Matrix::Index width : {1, 3, 8, 11}) {
      const Matrix t = RandomMatrix(60, width, &rng);
      const Matrix multi =
          AtIsa(isa, [&] { return kernels::MatTVecMulti(a, t); });
      ASSERT_EQ(multi.rows(), a.cols());
      ASSERT_EQ(multi.cols(), width);
      for (Matrix::Index b = 0; b < width; ++b) {
        const Vector single =
            AtIsa(isa, [&] { return MatTVec(a, t.Col(b)); });
        for (Matrix::Index i = 0; i < multi.rows(); ++i) {
          ASSERT_EQ(multi(i, b), single[i])
              << IsaName(isa) << " width=" << width << " col " << b;
        }
      }
    }
  }
  // Single-feature (p = 1) shape.
  const Matrix a1 = RandomMatrix(48, 1, &rng);
  const Matrix t1 = RandomMatrix(48, 8, &rng);
  const Matrix multi1 = kernels::MatTVecMulti(a1, t1);
  for (Matrix::Index b = 0; b < 8; ++b) {
    const Vector single = MatTVec(a1, t1.Col(b));
    ASSERT_EQ(multi1(0, b), single[0]);
  }
  const Matrix t = RandomMatrix(60, 11, &rng);
  testing::ExpectThreadCountInvariant(
      [&] { return Flatten(kernels::MatTVecMulti(a, t)); }, {1, 2, 8},
      "MatTVecMulti");
}

TEST(MultiZKernels, ApplyTransposedMultiBlockedBitwiseEqualsPerColumn) {
  const SparseMatrix m = MixedRowMatrix(60, 400, 24);
  Rng rng(53);
  for (const KernelIsa isa : IsasToTest()) {
    for (const Matrix::Index width : {1, 3, 8, 11}) {
      const Matrix t = RandomMatrix(60, width, &rng);
      const Matrix multi = AtIsa(
          isa, [&] { return kernels::ApplyTransposedMultiBlocked(m, t); });
      ASSERT_EQ(multi.rows(), 400);
      ASSERT_EQ(multi.cols(), width);
      for (Matrix::Index b = 0; b < width; ++b) {
        const Vector single =
            AtIsa(isa, [&] { return m.ApplyTransposed(t.Col(b)); });
        for (Matrix::Index i = 0; i < multi.rows(); ++i) {
          ASSERT_EQ(multi(i, b), single[i])
              << IsaName(isa) << " width=" << width << " col " << b;
        }
      }
    }
  }
  const Matrix t = RandomMatrix(60, 11, &rng);
  testing::ExpectThreadCountInvariant(
      [&] { return Flatten(kernels::ApplyTransposedMultiBlocked(m, t)); },
      {1, 2, 8}, "ApplyTransposedMultiBlocked");
}

// ---------- Runtime ISA dispatch ----------

TEST(KernelIsaDispatch, Avx2BitwiseEqualsScalarAndMatchesNaiveOracle) {
  // The AVX2 variants keep the canonical four-chain association (no FMA
  // contraction), so they are bitwise equal to the scalar kernels — a
  // stronger statement than the documented 1e-12 oracle contract, which
  // is also checked here against the reference loops.
  Rng rng(61);
  const Matrix a = RandomMatrix(131, 67, &rng);
  const Vector x = RandomVector(67, &rng);
  const Dataset sparse = SparseBinaryData(200, 900, /*seed=*/62,
                                          /*nnz_per_row=*/25);
  std::vector<Vector> store;
  for (int t = 0; t < 11; ++t) {
    store.push_back(testing::Trainedish(sparse, 70 + t));
  }
  std::vector<const Vector*> thetas;
  for (const Vector& v : store) thetas.push_back(&v);

  const Matrix zs = RandomMatrix(8, 67, &rng);
  auto run = [&](KernelIsa isa) {
    return AtIsa(isa, [&] {
      std::vector<Vector> outs;
      outs.push_back(MatVec(a, x));
      outs.push_back(Flatten(BatchMargins(sparse, thetas)));
      outs.push_back(Flatten(kernels::MatVecMulti(a, zs)));
      return outs;
    });
  };

  const std::vector<Vector> scalar = run(KernelIsa::kScalar);
  const std::vector<Vector> naive = {
      reference::MatVec(a, x),
      Flatten(reference::BatchMargins(sparse, thetas)),
      Flatten(reference::MatVecMulti(a, zs)),
  };
  for (std::size_t o = 0; o < scalar.size(); ++o) {
    EXPECT_LE(MaxRelDiff(scalar[o], naive[o]), 1e-12) << "output " << o;
  }

  if (!Avx2Available()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  const std::vector<Vector> avx2 = run(KernelIsa::kAvx2);
  ASSERT_EQ(avx2.size(), scalar.size());
  for (std::size_t o = 0; o < scalar.size(); ++o) {
    ASSERT_EQ(avx2[o].size(), scalar[o].size());
    for (Vector::Index i = 0; i < scalar[o].size(); ++i) {
      ASSERT_EQ(avx2[o][i], scalar[o][i]) << "output " << o << " elem " << i;
    }
    EXPECT_LE(MaxRelDiff(avx2[o], naive[o]), 1e-12) << "output " << o;
  }
}

TEST(KernelIsaDispatch, ScopeIsaReachesPoolWorkerLanes) {
  // The ISA choice must be visible on pool worker lanes, or batched
  // Monte-Carlo chunks would resolve the ISA per lane and results could
  // depend on the machine's ambient environment mid-run.
  ThreadPool pool(8);
  RuntimeOptions options;
  options.kernel_isa = KernelIsa::kScalar;
  options.pool = &pool;
  options.num_threads = 8;
  RuntimeScope scope(options);
  constexpr ParallelIndex kItems = 16;
  std::vector<int> seen(kItems, -1);
  ParallelFor(0, kItems, [&](ParallelIndex b, ParallelIndex e) {
    for (ParallelIndex i = b; i < e; ++i) {
      seen[static_cast<std::size_t>(i)] =
          static_cast<int>(CurrentKernelIsa());
    }
  }, /*grain=*/1);
  for (ParallelIndex i = 0; i < kItems; ++i) {
    ASSERT_EQ(seen[static_cast<std::size_t>(i)],
              static_cast<int>(KernelIsa::kScalar))
        << "item " << i;
  }
}

// ---------- End to end through the statistics path ----------

// Logistic regression whose gradient coefficients come from the reference
// RowDot margins. The margins are the only kernel-dependent step of the
// sparse ObservedFisher path whose output is not bitwise equal to its
// reference (the Gram gather and the covariance's transposed applies
// are), so statistics computed with this spec are the reference
// statistics.
class ReferenceMarginLogistic : public LogisticRegressionSpec {
 public:
  using LogisticRegressionSpec::LogisticRegressionSpec;
  void PerExampleGradientCoeffs(const Vector& theta, const Dataset& data,
                                Vector* coeffs) const override {
    *coeffs = reference::LogisticGradientCoeffs(theta, data);
  }
};

TEST(KernelStatistics, ObservedFisherAgreesWithReferenceAndAcrossThreads) {
  const Dataset data = SparseBinaryData(400, 600, /*seed=*/7,
                                        /*nnz_per_row=*/20);
  const Vector theta = testing::Trainedish(data, 1);
  const LogisticRegressionSpec spec(1e-3);
  const ReferenceMarginLogistic reference_spec(1e-3);
  StatsOptions options;
  options.stats_sample_size = 128;
  options.max_rank = 64;

  auto variance_of = [&](const ModelSpec& s) {
    Rng rng(17);
    auto sampler = ComputeStatistics(s, theta, data, options, &rng);
    EXPECT_TRUE(sampler.ok()) << sampler.status().ToString();
    auto diag = sampler->VarianceDiagonal();
    EXPECT_TRUE(diag.ok());
    return *diag;
  };
  EXPECT_LE(MaxRelDiff(variance_of(spec), variance_of(reference_spec)), 1e-9);

  testing::ExpectThreadCountInvariant([&] { return variance_of(spec); },
                                      {1, 2, 8}, "ObservedFisher variances");
}

}  // namespace
}  // namespace blinkml
