// google-benchmark microbenchmarks for the linear-algebra substrate: the
// kernels that dominate BlinkML's overhead (Gram matrices, symmetric
// eigendecomposition, Cholesky, sparse matvec).

#include <benchmark/benchmark.h>

#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "random/rng.h"

namespace blinkml {
namespace {

Matrix RandomMatrix(Matrix::Index rows, Matrix::Index cols,
                    std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (Matrix::Index r = 0; r < rows; ++r) {
    for (Matrix::Index c = 0; c < cols; ++c) m(r, c) = rng.Normal();
  }
  return m;
}

Matrix RandomSpd(Matrix::Index n, std::uint64_t seed) {
  Matrix b = RandomMatrix(n, n, seed);
  Matrix a = MatMulT(b, b);
  a.AddToDiagonal(0.5);
  return a;
}

void BM_MatMul(benchmark::State& state) {
  const auto n = static_cast<Matrix::Index>(state.range(0));
  const Matrix a = RandomMatrix(n, n, 1);
  const Matrix b = RandomMatrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_GramRows(benchmark::State& state) {
  const auto n = static_cast<Matrix::Index>(state.range(0));
  const Matrix q = RandomMatrix(n, 2 * n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GramRows(q));
  }
}
BENCHMARK(BM_GramRows)->Arg(128)->Arg(256)->Arg(512);

void BM_EigenSym(benchmark::State& state) {
  const auto n = static_cast<Matrix::Index>(state.range(0));
  const Matrix a = RandomSpd(n, 4);
  for (auto _ : state) {
    auto eig = EigenSym(a);
    benchmark::DoNotOptimize(eig);
  }
}
BENCHMARK(BM_EigenSym)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_Cholesky(benchmark::State& state) {
  const auto n = static_cast<Matrix::Index>(state.range(0));
  const Matrix a = RandomSpd(n, 5);
  for (auto _ : state) {
    auto chol = Cholesky::Factor(a);
    benchmark::DoNotOptimize(chol);
  }
}
BENCHMARK(BM_Cholesky)->Arg(64)->Arg(256)->Arg(512);

void BM_SparseMatVec(benchmark::State& state) {
  const auto rows = static_cast<SparseMatrix::Index>(state.range(0));
  const SparseMatrix::Index cols = 20'000;
  const SparseMatrix::Index nnz_per_row = 40;
  Rng rng(7);
  std::vector<std::vector<SparseEntry>> entries(
      static_cast<std::size_t>(rows));
  for (auto& row : entries) {
    for (auto c : SampleWithoutReplacement(cols, nnz_per_row, &rng)) {
      row.push_back({c, rng.Normal()});
    }
  }
  const SparseMatrix m(cols, std::move(entries));
  Vector x(cols);
  rng.FillNormal(&x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.Apply(x));
  }
  state.SetItemsProcessed(state.iterations() * rows * nnz_per_row);
}
BENCHMARK(BM_SparseMatVec)->Arg(1024)->Arg(8192);

}  // namespace
}  // namespace blinkml

BENCHMARK_MAIN();
