// Compute-kernel benchmark: the register-tiled / cache-blocked kernels
// (linalg/kernels.h) against the plain loops they replace
// (tests/reference/, the oracle), on the shapes the BlinkML hot paths
// actually run:
//   * dense Gram over a stats-sample-sized gradient matrix;
//   * sparse Gram over heavy hashed-feature rows;
//   * CSR matvec / transposed matvec (the sampler-draw kernels).
// End-to-end timing lives in bench_e2e/ (BENCHMARK.json).
//
//   $ ./build/bench_kernels [--json[=path]] [--threads=N]
//
// Honors BLINKML_SCALE (matvec dataset size) and BLINKML_REPEATS. Exit
// status reflects the correctness checks — kernel results within 1e-12
// (relative) of the reference and bitwise identical across 1/2/8 threads
// — not the speedup numbers.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/statistics.h"
#include "data/generators.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "models/model_spec.h"
#include "random/rng.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "tests/reference/reference.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace blinkml;

// Best-of-repeats wall time of fn() (first call untimed warm-up).
double TimeIt(int repeats, const std::function<void()>& fn) {
  fn();
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.Seconds());
  }
  return best;
}

RuntimeOptions PoolOptions(ThreadPool* pool, int threads) {
  RuntimeOptions options;
  options.pool = pool;
  options.num_threads = threads;
  return options;
}

struct MicroResult {
  std::string name;
  double reference_seconds = 0.0;
  double blocked_seconds = 0.0;
  double rel_diff = 0.0;       // kernel vs reference
  bool thread_invariant = false;  // kernel result bitwise at 1/2/8 threads
  double speedup() const { return reference_seconds / blocked_seconds; }
};

// Benchmarks one kernel: times the reference loop and the kernel (under
// `pool` at `threads` lanes), checks the kernel's result against the
// reference, and sweeps the kernel over 1/2/8 lanes for bitwise
// invariance. Result is any type with MaxAbsDiff + MaxRelDiff.
template <typename ResultT>
MicroResult RunMicro(const std::string& name, ThreadPool* pool, int threads,
                     int repeats, const std::function<ResultT()>& kernel,
                     const std::function<ResultT()>& reference) {
  MicroResult out;
  out.name = name;
  const ResultT oracle = reference();
  out.reference_seconds = TimeIt(repeats, [&] { reference(); });
  ResultT blocked;
  {
    RuntimeScope scope(PoolOptions(pool, threads));
    blocked = kernel();
    out.blocked_seconds = TimeIt(repeats, [&] { kernel(); });
  }
  out.rel_diff = MaxRelDiff(blocked, oracle);
  out.thread_invariant = true;
  for (const int t : {1, 2, 8}) {
    RuntimeScope scope(PoolOptions(pool, t));
    out.thread_invariant =
        out.thread_invariant && MaxAbsDiff(kernel(), blocked) == 0.0;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace blinkml::bench;

  const BenchFlags flags = ParseBenchFlags(argc, argv, "BENCH_kernels.json");
  const double scale = ScaleFromEnv();
  const int repeats = RepeatsFromEnv(3);
  const int hardware_threads = ThreadPool::DefaultParallelism();
  const int threads = flags.threads > 0 ? flags.threads : hardware_threads;
  // The pool holds 8 lanes regardless, so the 1/2/8-lane invariance sweep
  // runs real threads on any machine.
  ThreadPool pool(std::max(threads, 8));

  PrintHeader("Compute kernels: blocked/tiled vs reference loops");
  std::printf("threads=%d (local pool; %d hardware), repeats=%d, scale=%g\n",
              threads, hardware_threads, repeats, scale);

  // --- Workloads on the hot-path shapes.
  Rng rng(7);
  // Dense Gram: a stats-sample-sized gradient matrix (n_s x d).
  const Matrix::Index gram_n = 768, gram_d = 512;
  Matrix dense(gram_n, gram_d);
  for (Matrix::Index i = 0; i < dense.size(); ++i) {
    dense.data()[i] = rng.Normal(0.0, 1.0);
  }
  // Sparse Gram: heavy bag-of-words-like rows (the tiled path's regime).
  const Dataset sparse_gram_data = MakeSyntheticLogistic(
      /*rows=*/768, /*dim=*/12'000, /*seed=*/29, /*sparsity=*/0.025,
      /*noise=*/0.1);
  const SparseMatrix& q = sparse_gram_data.sparse();
  // CSR matvecs: the sampler-draw shape (every Monte-Carlo draw applies
  // Q^T with Q a heavy-row gradient matrix, hundreds of times per
  // estimate — so Q is cache-resident and the reference serial loops are
  // FP-latency-bound, exactly what the unrolled chains break).
  const auto mv_rows = static_cast<Dataset::Index>(3'000 * scale);
  const Dataset mv_data = MakeSyntheticLogistic(
      mv_rows, /*dim=*/12'000, /*seed=*/21, /*sparsity=*/0.05, /*noise=*/0.1);
  const SparseMatrix& x = mv_data.sparse();
  Vector xv(x.cols());
  for (Vector::Index i = 0; i < xv.size(); ++i) xv[i] = rng.Normal(0.0, 1.0);
  Vector xr(x.rows());
  for (Vector::Index i = 0; i < xr.size(); ++i) xr[i] = rng.Normal(0.0, 1.0);
  // Multi-vector matvec operands: 8 candidate thetas (the batched-scoring
  // margin pass) and an 8-column V (the covariance factor / draw batch).
  std::vector<Vector> theta_store;
  for (int t = 0; t < 8; ++t) {
    Vector theta(x.cols());
    for (Vector::Index i = 0; i < theta.size(); ++i) {
      theta[i] = rng.Normal(0.0, 1.0);
    }
    theta_store.push_back(std::move(theta));
  }
  std::vector<const Vector*> thetas;
  for (const Vector& theta : theta_store) thetas.push_back(&theta);
  Matrix vmat(x.rows(), 8);
  for (Matrix::Index i = 0; i < vmat.size(); ++i) {
    vmat.data()[i] = rng.Normal(0.0, 1.0);
  }
  // The reference for the multi-column transposed apply is one serial
  // scatter per column.
  const auto reference_multi_apply_t = [&]() -> Matrix {
    Matrix w(x.cols(), vmat.cols());
    for (Matrix::Index c = 0; c < vmat.cols(); ++c) {
      w.SetCol(c, reference::ApplyTransposed(x, vmat.Col(c)));
    }
    return w;
  };

  std::vector<MicroResult> micros;
  micros.push_back(RunMicro<Matrix>(
      StrFormat("dense_gram %lldx%lld", static_cast<long long>(gram_n),
                static_cast<long long>(gram_d)),
      &pool, threads, repeats, [&] { return GramRows(dense); },
      [&] { return reference::GramRows(dense); }));
  micros.push_back(RunMicro<Matrix>(
      StrFormat("sparse_gram %lld rows, %lld nnz/row",
                static_cast<long long>(q.rows()),
                static_cast<long long>(q.nnz() / q.rows())),
      &pool, threads, repeats, [&] { return SparseGradientGram(q); },
      [&] { return reference::SparseGram(q); }));
  micros.push_back(RunMicro<Matrix>(
      StrFormat("sparse_matvec x8 %s rows", WithThousands(x.rows()).c_str()),
      &pool, threads, repeats, [&] { return BatchMargins(mv_data, thetas); },
      [&] { return reference::BatchMargins(mv_data, thetas); }));
  micros.push_back(RunMicro<Matrix>(
      StrFormat("sparse_matvec_T x8 %s rows", WithThousands(x.rows()).c_str()),
      &pool, threads, repeats,
      [&] { return kernels::ApplyTransposedMulti(x, vmat); },
      reference_multi_apply_t));
  // Single-vector CSR applies: a gather dot is load-port-bound, so their
  // kernel win is lane scaling — parity is expected when the pool has one
  // hardware core under it (the multi-vector rows above carry the
  // single-core win via index-load amortization).
  micros.push_back(RunMicro<Vector>(
      StrFormat("sparse_apply x1 %s rows", WithThousands(x.rows()).c_str()),
      &pool, threads, repeats, [&] { return x.Apply(xv); },
      [&] { return reference::Apply(x, xv); }));
  micros.push_back(RunMicro<Vector>(
      StrFormat("sparse_apply_T x1 %s rows", WithThousands(x.rows()).c_str()),
      &pool, threads, repeats, [&] { return x.ApplyTransposed(xr); },
      [&] { return reference::ApplyTransposed(x, xr); }));

  bool checks_pass = true;
  std::printf("\n%-34s| %-10s| %-10s| %-8s| %-10s| %s\n", "kernel",
              "reference", "blocked", "speedup", "rel diff", "1/2/8 bitwise");
  std::vector<JsonObject> micro_json;
  for (const MicroResult& m : micros) {
    const bool ok = m.rel_diff <= 1e-12 && m.thread_invariant;
    checks_pass = checks_pass && ok;
    std::printf("%-34s| %-10s| %-10s| %-8.2f| %-10.2e| %s\n", m.name.c_str(),
                HumanSeconds(m.reference_seconds).c_str(),
                HumanSeconds(m.blocked_seconds).c_str(), m.speedup(),
                m.rel_diff, m.thread_invariant ? "yes" : "NO");
    micro_json.push_back(JsonObject()
                             .Str("kernel", m.name)
                             .Number("reference_seconds", m.reference_seconds)
                             .Number("blocked_seconds", m.blocked_seconds)
                             .Number("speedup", m.speedup())
                             .Number("rel_diff_vs_reference", m.rel_diff)
                             .Bool("thread_invariant", m.thread_invariant));
  }

  // --- Blocked-kernel thread scaling (dense Gram; fixed schedule, so the
  // results are bitwise identical per the sweep above). Only lane counts
  // the machine has hardware threads for: more lanes than that time
  // oversubscription, not scaling.
  std::printf("\n%-10s| %s\n", "threads", "dense_gram blocked");
  std::vector<JsonObject> thread_json;
  for (int t = 1; t <= hardware_threads; t *= 2) {
    RuntimeScope scope(PoolOptions(&pool, t));
    const double seconds = TimeIt(repeats, [&] { GramRows(dense); });
    std::printf("%-10d| %s\n", t, HumanSeconds(seconds).c_str());
    thread_json.push_back(
        JsonObject().Int("threads", t).Number("dense_gram_seconds", seconds));
  }

  const char* isa_name =
      CurrentKernelIsa() == KernelIsa::kAvx2 ? "avx2" : "scalar";
  std::printf("\nkernel isa: %s\nchecks: %s\n", isa_name,
              checks_pass ? "kernels within 1e-12 of the reference, bitwise "
                            "across thread counts"
                          : "FAILED");

  if (flags.json) {
    JsonObject root;
    root.Str("bench", "kernels")
        .Int("threads", threads)
        .Int("hardware_threads", hardware_threads)
        .Number("scale", scale)
        .Int("repeats", repeats)
        .Number("dense_gram_speedup", micros[0].speedup())
        .Number("sparse_gram_speedup", micros[1].speedup())
        .Number("sparse_matvec_speedup", micros[2].speedup())
        .Number("sparse_matvec_t_speedup", micros[3].speedup())
        .Array("micro", micro_json)
        .Array("thread_scaling", thread_json)
        .Str("kernel_isa", isa_name)
        .Bool("checks_pass", checks_pass);
    if (!WriteBenchFile(flags.json_path, root.ToString())) return 1;
  }
  return checks_pass ? 0 : 1;
}
