// Compute-kernel benchmark: the register-tiled / cache-blocked kernels
// (linalg/kernels.h) against the plain loops they replace
// (tests/reference/, the oracle), on the shapes the BlinkML hot paths
// actually run:
//   * dense Gram over a stats-sample-sized gradient matrix;
//   * sparse Gram over heavy hashed-feature rows;
//   * CSR matvec / transposed matvec (the sampler-draw kernels);
//   * dense batched margins, 8 draws over a 2,000 x 100 holdout (the
//     Monte-Carlo scoring pass of a dense train; fixed, not scaled);
//   * glm_pass: one logistic ObjectiveAndGradient pass over a train-dense
//     final sample (42,000 x 100) and a search-sparse-sized sample (33,000
//     rows, 20,000 columns, 39 nnz per row), on one lane, next to the
//     row-by-row reference pass and a plain streaming read of the same
//     feature bytes — how close the pass runs to memory speed;
//   * mc_verdicts: one group of 8 logistic Monte-Carlo verdicts over a
//     train-dense holdout (2,000 rows, one score column) from the fused
//     sign-flip count of GlmSpec::DiffsFromScoreBatch, next to the
//     ModelSpec default it overrides (materialize s1 and s2, then
//     DiffFromScores), in the accuracy form (s2 = w + base) and the size
//     form (s1 = u * a1 + base, s2 = w * a2 + s1);
//   * sample_refill: one final-sample gather of random rows from a
//     100,000 x 100 dense pool, Dataset::TakeRows into fresh storage next
//     to a refill of kept storage (what a training session's final trains
//     do), for a sample above glibc's 32 MiB mmap ceiling (65,000 rows,
//     52 MB: every fresh gather maps, zero-fills and faults a new buffer)
//     and one below it (27,000 rows, 21.6 MB).
// End-to-end timing lives in bench_e2e/ (BENCHMARK.json).
//
//   $ ./build/bench_kernels [--json[=path]] [--threads=N]
//
// Honors BLINKML_SCALE (matvec dataset size) and BLINKML_REPEATS. Exit
// status reflects the correctness checks — kernel results within 1e-12
// (relative) of the reference and bitwise identical across 1/2/8 threads,
// GLM passes and Monte-Carlo verdicts bitwise equal to their references,
// refilled samples byte-identical to fresh ones — not the speedup numbers.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/statistics.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "models/logistic_regression.h"
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

// One GLM pass next to its reference and a streaming read of its bytes.
struct PassResult {
  std::string name;
  double bytes = 0.0;  // feature storage the pass streams
  double reference_seconds = 0.0;
  double pass_seconds = 0.0;
  double stream_seconds = 0.0;
  bool bitwise = false;           // pass == row-by-row reference, bitwise
  bool thread_invariant = false;  // pass bitwise at 1/2/8 threads
};

// Sums n values with four chains: a plain read of the bytes at the speed
// the memory system streams them.
template <typename T>
T StreamSum(const T* p, std::size_t n) {
  T s0{}, s1{}, s2{}, s3{};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += p[i];
    s1 += p[i + 1];
    s2 += p[i + 2];
    s3 += p[i + 3];
  }
  for (; i < n; ++i) s0 += p[i];
  return (s0 + s1) + (s2 + s3);
}

// Times a logistic ObjectiveAndGradient pass over `data` at one lane, the
// row-by-row reference pass, and a streaming read of the feature arrays;
// checks the pass against the reference and across 1/2/8 threads.
PassResult RunGlmPass(const std::string& name, const Dataset& data,
                      ThreadPool* pool, int repeats) {
  const LogisticRegressionSpec spec(1e-4);
  Rng rng(31);
  Vector theta(data.dim());
  for (Vector::Index j = 0; j < theta.size(); ++j) {
    theta[j] = rng.Normal(0.0, 0.05);
  }
  // The arrays a pass streams: the dense rows, or the CSR columns and
  // values. The signed column indices are read as unsigned words, which
  // may alias them.
  const auto stream = [&] {
    if (!data.is_sparse()) {
      return StreamSum(data.dense().data(),
                       static_cast<std::size_t>(data.dense().size()));
    }
    const SparseMatrix& x = data.sparse();
    const auto nnz = static_cast<std::size_t>(x.nnz());
    const auto* cols = reinterpret_cast<const std::uint64_t*>(x.RowCols(0));
    return static_cast<double>(StreamSum(cols, nnz)) +
           StreamSum(x.RowValues(0), nnz);
  };
  PassResult out;
  out.name = name;
  out.bytes = data.is_sparse()
                  ? static_cast<double>(data.sparse().nnz()) *
                        (sizeof(SparseMatrix::Index) + sizeof(double))
                  : static_cast<double>(data.dense().size()) * sizeof(double);
  const auto pass = [&] {
    Vector grad;
    const double f = spec.ObjectiveAndGradient(theta, data, &grad);
    grad.Resize(grad.size() + 1);
    grad[grad.size() - 1] = f;
    return grad;
  };
  const auto reference_pass = [&] {
    Vector grad;
    const double f = reference::GlmObjectiveAndGradient(
        reference::LogisticLink(), theta, data, spec.l2(), &grad);
    grad.Resize(grad.size() + 1);
    grad[grad.size() - 1] = f;
    return grad;
  };
  const Vector want = reference_pass();
  out.reference_seconds = TimeIt(repeats, [&] { reference_pass(); });
  volatile double sink = 0.0;
  out.stream_seconds = TimeIt(repeats, [&] { sink = sink + stream(); });
  Vector got;
  {
    RuntimeScope scope(PoolOptions(pool, 1));
    got = pass();
    out.pass_seconds = TimeIt(repeats, [&] { pass(); });
  }
  out.bitwise = got.size() == want.size() && MaxAbsDiff(got, want) == 0.0;
  out.thread_invariant = true;
  for (const int t : {1, 2, 8}) {
    RuntimeScope scope(PoolOptions(pool, t));
    out.thread_invariant =
        out.thread_invariant && MaxAbsDiff(pass(), got) == 0.0;
  }
  return out;
}

// One group of Monte-Carlo verdicts, fused and materialized.
struct VerdictResult {
  std::string name;
  double default_seconds = 0.0;  // per group
  double fused_seconds = 0.0;    // per group
  bool bitwise = false;          // fused v == default v, bitwise
};

// Times the v of one 8-draw group over `holdout` (a single-output GLM's
// holdout, so one score column): the spec's DiffsFromScoreBatch against
// the ModelSpec default, which materializes each draw's s1 and s2 and
// calls DiffFromScores. The accuracy form passes no u and a2 = 1.
VerdictResult RunVerdicts(const std::string& name, const ModelSpec& spec,
                          const Dataset& holdout, bool size_form,
                          int repeats) {
  constexpr int kGroup = 8;
  constexpr int kCalls = 64;  // groups per timed call, against timer noise
  Rng rng(41);
  const auto random_theta = [&](double sd) {
    Vector theta(holdout.dim());
    for (Vector::Index j = 0; j < theta.size(); ++j) {
      theta[j] = rng.Normal(0.0, sd);
    }
    return theta;
  };
  const Matrix base = spec.Scores(random_theta(0.1), holdout);
  std::vector<Vector> draws;
  for (int t = 0; t < 2 * kGroup; ++t) draws.push_back(random_theta(1.0));
  std::vector<const Vector*> u_ptrs, w_ptrs;
  for (int t = 0; t < kGroup; ++t) {
    u_ptrs.push_back(&draws[static_cast<std::size_t>(t)]);
    w_ptrs.push_back(&draws[static_cast<std::size_t>(kGroup + t)]);
  }
  const Matrix u = spec.ScoresBatch(u_ptrs, holdout);
  const Matrix w = spec.ScoresBatch(w_ptrs, holdout);
  const Matrix* group_u = size_form ? &u : nullptr;
  // A train-dense candidate's scales: n0 = 10K, n = 40K, N = 198K.
  const double a1 = size_form ? std::sqrt(1.0 / 10'000 - 1.0 / 40'000) : 0.0;
  const double a2 =
      size_form ? std::sqrt(1.0 / 40'000 - 1.0 / 198'000) : 1.0;
  double default_v[kGroup];
  double fused_v[kGroup];
  VerdictResult out;
  out.name = name;
  out.default_seconds = TimeIt(repeats, [&] {
                          for (int c = 0; c < kCalls; ++c) {
                            spec.ModelSpec::DiffsFromScoreBatch(
                                base, group_u, a1, w, a2, holdout, default_v);
                          }
                        }) /
                        kCalls;
  out.fused_seconds = TimeIt(repeats, [&] {
                        for (int c = 0; c < kCalls; ++c) {
                          spec.DiffsFromScoreBatch(base, group_u, a1, w, a2,
                                                   holdout, fused_v);
                        }
                      }) /
                      kCalls;
  out.bitwise = std::memcmp(default_v, fused_v, sizeof(default_v)) == 0;
  return out;
}

// One sample gathered into fresh storage and into kept storage.
struct RefillResult {
  std::string name;
  double bytes = 0.0;  // feature and label bytes of the sample
  double fresh_seconds = 0.0;
  double refill_seconds = 0.0;
  bool identical = false;  // refilled bytes == fresh bytes
};

// Times Dataset::TakeRows of `rows` into fresh storage (allocated and freed
// per call) against a refill of storage kept from the previous call, and
// compares the two samples byte for byte.
RefillResult RunRefill(const std::string& name, const Dataset& pool,
                       const std::vector<Dataset::Index>& rows, int repeats) {
  RefillResult out;
  out.name = name;
  out.fresh_seconds = TimeIt(repeats, [&] { pool.TakeRows(rows); });
  RowStorage storage;
  out.refill_seconds = TimeIt(repeats, [&] {
    Dataset sample = pool.TakeRows(rows, std::move(storage));
    storage = std::move(sample).ReleaseStorage();
  });
  const Dataset fresh = pool.TakeRows(rows);
  const Dataset refilled = pool.TakeRows(rows, std::move(storage));
  const auto feature_bytes =
      static_cast<std::size_t>(fresh.dense().size()) * sizeof(double);
  const auto label_bytes =
      static_cast<std::size_t>(fresh.labels().size()) * sizeof(double);
  out.bytes = static_cast<double>(feature_bytes + label_bytes);
  out.identical =
      refilled.num_rows() == fresh.num_rows() &&
      refilled.dense().size() == fresh.dense().size() &&
      refilled.labels().size() == fresh.labels().size() &&
      std::memcmp(refilled.dense().data(), fresh.dense().data(),
                  feature_bytes) == 0 &&
      std::memcmp(refilled.labels().data(), fresh.labels().data(),
                  label_bytes) == 0;
  return out;
}

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
  // Dense batched margins at the dense-train holdout shape: every
  // Monte-Carlo draw of both estimators is scored by one such pass.
  const Dataset margin_data = MakeSyntheticLogistic(
      /*n=*/2'000, /*dim=*/100, /*seed=*/23);
  std::vector<Vector> draw_store;
  for (int t = 0; t < 8; ++t) {
    Vector draw(margin_data.dim());
    for (Vector::Index i = 0; i < draw.size(); ++i) {
      draw[i] = rng.Normal(0.0, 1.0);
    }
    draw_store.push_back(std::move(draw));
  }
  std::vector<const Vector*> draws;
  for (const Vector& draw : draw_store) draws.push_back(&draw);
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
  micros.push_back(RunMicro<Matrix>(
      StrFormat("dense_margins x8 %s x %lld",
                WithThousands(margin_data.num_rows()).c_str(),
                static_cast<long long>(margin_data.dim())),
      &pool, threads, repeats, [&] { return BatchMargins(margin_data, draws); },
      [&] { return reference::BatchMargins(margin_data, draws); }));
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

  // GLM passes at the final-sample shapes of train-dense and
  // search-sparse; fixed, not scaled.
  const Dataset pass_dense = MakeSyntheticLogistic(/*n=*/42'000, /*dim=*/100,
                                                   /*seed=*/33);
  const Dataset pass_sparse = MakeCriteoLike(/*n=*/33'000, /*seed=*/34,
                                             /*dim=*/20'000,
                                             /*nnz_per_row=*/39);
  std::vector<PassResult> passes;
  passes.push_back(RunGlmPass("logistic dense 42,000 x 100", pass_dense,
                              &pool, repeats));
  passes.push_back(RunGlmPass("logistic sparse 33,000 x 20,000 (39 nnz)",
                              pass_sparse, &pool, repeats));

  // Monte-Carlo verdicts at the train-dense holdout shape; fixed, not
  // scaled.
  const Dataset verdict_holdout = MakeSyntheticLogistic(/*n=*/2'000,
                                                        /*dim=*/100,
                                                        /*seed=*/35);
  const LogisticRegressionSpec logistic(1e-4);
  std::vector<VerdictResult> verdicts;
  for (const bool size_form : {false, true}) {
    verdicts.push_back(
        RunVerdicts(StrFormat("logistic %s", size_form ? "size" : "accuracy"),
                    logistic, verdict_holdout, size_form, repeats));
  }

  // Final-sample gathers at train-dense's row width (100 doubles), above
  // and below the mmap ceiling; fixed, not scaled.
  const Dataset refill_pool = MakeSyntheticLogistic(/*n=*/100'000,
                                                    /*dim=*/100, /*seed=*/37);
  std::vector<RefillResult> refills;
  for (const Dataset::Index n : {65'000, 27'000}) {
    Rng draw(39);
    refills.push_back(
        RunRefill(StrFormat("dense %s x 100 of 100,000",
                            WithThousands(n).c_str()),
                  refill_pool,
                  SampleWithoutReplacement(refill_pool.num_rows(), n, &draw),
                  repeats));
  }

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

  // --- GLM passes: one lane each, so the pass, the reference and the
  // streaming read all run on one core.
  std::printf("\n%-42s| %-10s| %-10s| %-10s| %-11s| %s\n", "glm_pass (1 lane)",
              "reference", "pass", "stream", "pass GB/s", "bitwise, 1/2/8");
  std::vector<JsonObject> pass_json;
  for (const PassResult& p : passes) {
    const bool ok = p.bitwise && p.thread_invariant;
    checks_pass = checks_pass && ok;
    std::printf("%-42s| %-10s| %-10s| %-10s| %-11.2f| %s\n", p.name.c_str(),
                HumanSeconds(p.reference_seconds).c_str(),
                HumanSeconds(p.pass_seconds).c_str(),
                HumanSeconds(p.stream_seconds).c_str(),
                p.bytes / p.pass_seconds * 1e-9, ok ? "yes" : "NO");
    pass_json.push_back(JsonObject()
                            .Str("pass", p.name)
                            .Number("bytes", p.bytes)
                            .Number("reference_seconds", p.reference_seconds)
                            .Number("pass_seconds", p.pass_seconds)
                            .Number("stream_seconds", p.stream_seconds)
                            .Number("pass_over_stream",
                                    p.pass_seconds / p.stream_seconds)
                            .Bool("bitwise_vs_reference", p.bitwise)
                            .Bool("thread_invariant", p.thread_invariant));
  }

  // --- Monte-Carlo verdicts: per group of 8 draws, one lane.
  std::printf("\n%-42s| %-10s| %-10s| %-8s| %s\n",
              "mc_verdicts (8 draws, 2,000 x 1)", "default", "fused",
              "speedup", "bitwise");
  std::vector<JsonObject> verdict_json;
  for (const VerdictResult& v : verdicts) {
    checks_pass = checks_pass && v.bitwise;
    std::printf("%-42s| %-10s| %-10s| %-8.2f| %s\n", v.name.c_str(),
                HumanSeconds(v.default_seconds).c_str(),
                HumanSeconds(v.fused_seconds).c_str(),
                v.default_seconds / v.fused_seconds,
                v.bitwise ? "yes" : "NO");
    verdict_json.push_back(JsonObject()
                               .Str("verdicts", v.name)
                               .Number("default_seconds", v.default_seconds)
                               .Number("fused_seconds", v.fused_seconds)
                               .Number("speedup",
                                       v.default_seconds / v.fused_seconds)
                               .Bool("bitwise_vs_default", v.bitwise));
  }

  // --- Final-sample gathers: fresh storage against kept storage.
  std::printf("\n%-42s| %-10s| %-10s| %-10s| %-8s| %s\n",
              "sample_refill (TakeRows)", "MB", "fresh", "refill", "speedup",
              "identical");
  std::vector<JsonObject> refill_json;
  for (const RefillResult& r : refills) {
    checks_pass = checks_pass && r.identical;
    std::printf("%-42s| %-10.1f| %-10s| %-10s| %-8.2f| %s\n", r.name.c_str(),
                r.bytes * 1e-6, HumanSeconds(r.fresh_seconds).c_str(),
                HumanSeconds(r.refill_seconds).c_str(),
                r.fresh_seconds / r.refill_seconds,
                r.identical ? "yes" : "NO");
    refill_json.push_back(JsonObject()
                              .Str("sample", r.name)
                              .Number("bytes", r.bytes)
                              .Number("fresh_seconds", r.fresh_seconds)
                              .Number("refill_seconds", r.refill_seconds)
                              .Number("speedup",
                                      r.fresh_seconds / r.refill_seconds)
                              .Bool("identical", r.identical));
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
              checks_pass ? "kernels within 1e-12 of the reference, GLM "
                            "passes and Monte-Carlo verdicts bitwise, "
                            "refilled samples identical, bitwise across "
                            "thread counts"
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
        .Number("dense_margins_speedup", micros[4].speedup())
        .Array("micro", micro_json)
        .Array("glm_pass", pass_json)
        .Array("mc_verdicts", verdict_json)
        .Array("sample_refill", refill_json)
        .Array("thread_scaling", thread_json)
        .Str("kernel_isa", isa_name)
        .Object("machine", MachineJson(threads))
        .Bool("checks_pass", checks_pass);
    if (!WriteBenchFile(flags.json_path, root.ToString())) return 1;
  }
  return checks_pass ? 0 : 1;
}
