#include "linalg/kernels.h"

#include <algorithm>

#include "obs/metrics.h"
#include "runtime/parallel.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define BLINKML_KERNELS_AVX2 1
#include <immintrin.h>
#endif

namespace blinkml {
namespace kernels {

void NoteKernelDispatch(const char* kernel) {
  obs::Registry::Global()
      .Counter("kernel_calls_total", {{"kernel", kernel}})
      ->Inc();
}

namespace {

using DIndex = Matrix::Index;
using SIndex = SparseMatrix::Index;

// Chunk count for the reduction-shaped transposed matvecs: a pure function
// of the work (nnz scattered) and the output width, so the partial layout
// never depends on the thread count. Each chunk's scatter work must cover
// a few rounds of its own partial's zero+merge traffic.
ParallelIndex TransposedChunks(ParallelIndex work, ParallelIndex width) {
  if (width <= 0) return 1;
  const ParallelIndex by_work = work / (4 * width);
  return std::max<ParallelIndex>(
      1, std::min<ParallelIndex>(by_work, kMaxGradientChunks));
}

// One row of BatchMarginsSparse for a column group of compile-time width
// W at offset c0 of the interleaved pack (stride k). Chain o of column t
// accumulates exactly the p % 4 == o products in ascending order and the
// chains merge as (s0+s1)+(s2+s3): bitwise SparseDotUnrolled per column.
// The constant trip counts are what let the compiler keep the W
// accumulators vectorized instead of bouncing them through the stack.
template <int W>
void BatchRowGather(const SIndex* cols, const double* vals, SIndex nnz,
                    const double* pack, DIndex k, DIndex c0, double* orow) {
  double acc[4][W];
  for (int t = 0; t < W; ++t) {
    acc[0][t] = acc[1][t] = acc[2][t] = acc[3][t] = 0.0;
  }
  SIndex p = 0;
  for (; p + 4 <= nnz; p += 4) {
    const double v0 = vals[p], v1 = vals[p + 1];
    const double v2 = vals[p + 2], v3 = vals[p + 3];
    const double* b0 = pack + cols[p] * k + c0;
    const double* b1 = pack + cols[p + 1] * k + c0;
    const double* b2 = pack + cols[p + 2] * k + c0;
    const double* b3 = pack + cols[p + 3] * k + c0;
    for (int t = 0; t < W; ++t) {
      acc[0][t] += v0 * b0[t];
      acc[1][t] += v1 * b1[t];
      acc[2][t] += v2 * b2[t];
      acc[3][t] += v3 * b3[t];
    }
  }
  for (int t = 0; t < W; ++t) {
    double s = (acc[0][t] + acc[1][t]) + (acc[2][t] + acc[3][t]);
    for (SIndex q = p; q < nnz; ++q) {
      s += vals[q] * pack[static_cast<std::size_t>(cols[q] * k + c0 + t)];
    }
    orow[c0 + t] = s;
  }
}

#if BLINKML_KERNELS_AVX2

// The end of DotUnrolledAvx2 from element k on: the (s0+s1)+(s2+s3)
// merge of the four lanes, then the scalar tail.
__attribute__((target("avx2"))) inline double MergeDotLanes(__m256d acc,
                                                            const double* a,
                                                            const double* b,
                                                            DIndex k,
                                                            DIndex n) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; k < n; ++k) s += a[k] * b[k];
  return s;
}

// AVX2 DotUnrolled: the 4 scalar chains are the 4 lanes of one ymm
// register (element k lands in lane k % 4, exactly the chain it lands in
// scalar), merged with the same scalar (s0+s1)+(s2+s3) and the same
// scalar tail. No FMA — separate mul/add keeps each lane's rounding
// identical to the scalar chain — so the result is bitwise DotUnrolled.
__attribute__((target("avx2"))) double DotUnrolledAvx2(const double* a,
                                                       const double* b,
                                                       DIndex n) {
  __m256d acc = _mm256_setzero_pd();
  DIndex k = 0;
  for (; k + 4 <= n; k += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + k), _mm256_loadu_pd(b + k)));
  }
  return MergeDotLanes(acc, a, b, k, n);
}

// AVX2 DenseMargins: four rows per step share each load of theta. Each
// row keeps its own 4-lane chain, merge and tail, so every margin is
// bitwise DotUnrolledAvx2 of its row; the four chains are independent, so
// the adds no longer wait on one chain's latency.
__attribute__((target("avx2"))) void DenseMarginsAvx2(const Matrix& x,
                                                      const double* theta,
                                                      DIndex b, DIndex e,
                                                      double* out) {
  const DIndex d = x.cols();
  DIndex i = b;
  for (; i + 4 <= e; i += 4) {
    const double* r0 = x.row_data(i);
    const double* r1 = x.row_data(i + 1);
    const double* r2 = x.row_data(i + 2);
    const double* r3 = x.row_data(i + 3);
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    DIndex k = 0;
    for (; k + 4 <= d; k += 4) {
      const __m256d t = _mm256_loadu_pd(theta + k);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(r0 + k), t));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(r1 + k), t));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(r2 + k), t));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(r3 + k), t));
    }
    out[i - b] = MergeDotLanes(a0, r0, theta, k, d);
    out[i + 1 - b] = MergeDotLanes(a1, r1, theta, k, d);
    out[i + 2 - b] = MergeDotLanes(a2, r2, theta, k, d);
    out[i + 3 - b] = MergeDotLanes(a3, r3, theta, k, d);
  }
  for (; i < e; ++i) out[i - b] = DotUnrolledAvx2(x.row_data(i), theta, d);
}

// AVX2 row update y += alpha * x: a multiply, then an add, per lane — no
// FMA — so each element rounds exactly as the scalar y[c] += alpha * x[c].
__attribute__((target("avx2"))) void AddScaledRowAvx2(double alpha,
                                                      const double* x,
                                                      DIndex n, double* y) {
  const __m256d a = _mm256_set1_pd(alpha);
  DIndex c = 0;
  for (; c + 4 <= n; c += 4) {
    const __m256d ax = _mm256_mul_pd(a, _mm256_loadu_pd(x + c));
    _mm256_storeu_pd(y + c, _mm256_add_pd(_mm256_loadu_pd(y + c), ax));
  }
  for (; c < n; ++c) y[c] += alpha * x[c];
}

// AVX2 BatchRowGather for a full kMultiVec group: lanes are the group's
// 8 COLUMNS (two ymm halves), one register pair per scalar chain, so each
// column's chain contents and the (a0+a1)+(a2+a3) merge match the scalar
// template per lane. The nnz tail appends entry products to the merged
// sums in ascending order, as the scalar per-column tail loop does.
__attribute__((target("avx2"))) void BatchRowGatherAvx2(
    const SIndex* cols, const double* vals, SIndex nnz, const double* pack,
    DIndex k, DIndex c0, double* orow) {
  __m256d a0l = _mm256_setzero_pd(), a0h = _mm256_setzero_pd();
  __m256d a1l = _mm256_setzero_pd(), a1h = _mm256_setzero_pd();
  __m256d a2l = _mm256_setzero_pd(), a2h = _mm256_setzero_pd();
  __m256d a3l = _mm256_setzero_pd(), a3h = _mm256_setzero_pd();
  SIndex p = 0;
  for (; p + 4 <= nnz; p += 4) {
    const __m256d v0 = _mm256_set1_pd(vals[p]);
    const __m256d v1 = _mm256_set1_pd(vals[p + 1]);
    const __m256d v2 = _mm256_set1_pd(vals[p + 2]);
    const __m256d v3 = _mm256_set1_pd(vals[p + 3]);
    const double* b0 = pack + cols[p] * k + c0;
    const double* b1 = pack + cols[p + 1] * k + c0;
    const double* b2 = pack + cols[p + 2] * k + c0;
    const double* b3 = pack + cols[p + 3] * k + c0;
    a0l = _mm256_add_pd(a0l, _mm256_mul_pd(v0, _mm256_loadu_pd(b0)));
    a0h = _mm256_add_pd(a0h, _mm256_mul_pd(v0, _mm256_loadu_pd(b0 + 4)));
    a1l = _mm256_add_pd(a1l, _mm256_mul_pd(v1, _mm256_loadu_pd(b1)));
    a1h = _mm256_add_pd(a1h, _mm256_mul_pd(v1, _mm256_loadu_pd(b1 + 4)));
    a2l = _mm256_add_pd(a2l, _mm256_mul_pd(v2, _mm256_loadu_pd(b2)));
    a2h = _mm256_add_pd(a2h, _mm256_mul_pd(v2, _mm256_loadu_pd(b2 + 4)));
    a3l = _mm256_add_pd(a3l, _mm256_mul_pd(v3, _mm256_loadu_pd(b3)));
    a3h = _mm256_add_pd(a3h, _mm256_mul_pd(v3, _mm256_loadu_pd(b3 + 4)));
  }
  __m256d sl =
      _mm256_add_pd(_mm256_add_pd(a0l, a1l), _mm256_add_pd(a2l, a3l));
  __m256d sh =
      _mm256_add_pd(_mm256_add_pd(a0h, a1h), _mm256_add_pd(a2h, a3h));
  for (; p < nnz; ++p) {
    const __m256d v = _mm256_set1_pd(vals[p]);
    const double* bq = pack + cols[p] * k + c0;
    sl = _mm256_add_pd(sl, _mm256_mul_pd(v, _mm256_loadu_pd(bq)));
    sh = _mm256_add_pd(sh, _mm256_mul_pd(v, _mm256_loadu_pd(bq + 4)));
  }
  _mm256_storeu_pd(orow + c0, sl);
  _mm256_storeu_pd(orow + c0 + 4, sh);
}

#endif  // BLINKML_KERNELS_AVX2

// Resolved once per kernel entry (on the calling thread or inside a lane —
// worker lanes see the caller's ambient RuntimeOptions, so either spot
// reads the same scope).
bool UseAvx2() {
#if BLINKML_KERNELS_AVX2
  return CurrentKernelIsa() == KernelIsa::kAvx2;
#else
  return false;
#endif
}

using DotFn = double (*)(const double*, const double*, DIndex);

DotFn SelectDot() {
#if BLINKML_KERNELS_AVX2
  if (UseAvx2()) return &DotUnrolledAvx2;
#endif
  return &DotUnrolled;
}

// Runtime-width tail groups (fewer than kMultiVec columns left).
void BatchRowGatherTail(const SIndex* cols, const double* vals, SIndex nnz,
                        const double* pack, DIndex k, DIndex c0, DIndex width,
                        double* orow) {
  switch (width) {
    case 1: return BatchRowGather<1>(cols, vals, nnz, pack, k, c0, orow);
    case 2: return BatchRowGather<2>(cols, vals, nnz, pack, k, c0, orow);
    case 3: return BatchRowGather<3>(cols, vals, nnz, pack, k, c0, orow);
    case 4: return BatchRowGather<4>(cols, vals, nnz, pack, k, c0, orow);
    case 5: return BatchRowGather<5>(cols, vals, nnz, pack, k, c0, orow);
    case 6: return BatchRowGather<6>(cols, vals, nnz, pack, k, c0, orow);
    case 7: return BatchRowGather<7>(cols, vals, nnz, pack, k, c0, orow);
    default: return BatchRowGather<8>(cols, vals, nnz, pack, k, c0, orow);
  }
}

// W dots of one dense row against W vectors interleaved into a pack
// (pack[p * W + t] = vec_t[p]): the row is loaded once for the whole
// group and every step touches one contiguous W-slab per unrolled lane.
// Chain o of column t accumulates exactly the p % 4 == o products in
// ascending order, merged (s0+s1)+(s2+s3) then the scalar tail — bitwise
// DotUnrolled(row, vec_t) per column. Backs MatVecMulti.
template <int W>
void BatchRowPacked(const double* row, DIndex d, const double* pack,
                    double* out) {
  double acc[4][W];
  for (int t = 0; t < W; ++t) {
    acc[0][t] = acc[1][t] = acc[2][t] = acc[3][t] = 0.0;
  }
  DIndex p = 0;
  for (; p + 4 <= d; p += 4) {
    const double a0 = row[p], a1 = row[p + 1];
    const double a2 = row[p + 2], a3 = row[p + 3];
    const double* b = pack + static_cast<std::size_t>(p) * W;
    for (int t = 0; t < W; ++t) {
      acc[0][t] += a0 * b[t];
      acc[1][t] += a1 * b[W + t];
      acc[2][t] += a2 * b[2 * W + t];
      acc[3][t] += a3 * b[3 * W + t];
    }
  }
  for (int t = 0; t < W; ++t) {
    double s = (acc[0][t] + acc[1][t]) + (acc[2][t] + acc[3][t]);
    for (DIndex q = p; q < d; ++q) {
      s += row[q] * pack[static_cast<std::size_t>(q) * W + t];
    }
    out[t] = s;
  }
}

void BatchRowPackedTail(const double* row, DIndex d, const double* pack,
                        DIndex width, double* out) {
  switch (width) {
    case 1: return BatchRowPacked<1>(row, d, pack, out);
    case 2: return BatchRowPacked<2>(row, d, pack, out);
    case 3: return BatchRowPacked<3>(row, d, pack, out);
    case 4: return BatchRowPacked<4>(row, d, pack, out);
    case 5: return BatchRowPacked<5>(row, d, pack, out);
    case 6: return BatchRowPacked<6>(row, d, pack, out);
    case 7: return BatchRowPacked<7>(row, d, pack, out);
    default: return BatchRowPacked<8>(row, d, pack, out);
  }
}

#if BLINKML_KERNELS_AVX2

// AVX2 BatchRowPacked for a full kMultiVec group: lanes are the 8
// columns, one ymm pair per chain, same merge and tail order per lane as
// the scalar template. No FMA.
__attribute__((target("avx2"))) void BatchRowPackedAvx2(const double* row,
                                                        DIndex d,
                                                        const double* pack,
                                                        double* out) {
  __m256d a0l = _mm256_setzero_pd(), a0h = _mm256_setzero_pd();
  __m256d a1l = _mm256_setzero_pd(), a1h = _mm256_setzero_pd();
  __m256d a2l = _mm256_setzero_pd(), a2h = _mm256_setzero_pd();
  __m256d a3l = _mm256_setzero_pd(), a3h = _mm256_setzero_pd();
  DIndex p = 0;
  for (; p + 4 <= d; p += 4) {
    const __m256d v0 = _mm256_set1_pd(row[p]);
    const __m256d v1 = _mm256_set1_pd(row[p + 1]);
    const __m256d v2 = _mm256_set1_pd(row[p + 2]);
    const __m256d v3 = _mm256_set1_pd(row[p + 3]);
    const double* b = pack + static_cast<std::size_t>(p) * 8;
    a0l = _mm256_add_pd(a0l, _mm256_mul_pd(v0, _mm256_loadu_pd(b)));
    a0h = _mm256_add_pd(a0h, _mm256_mul_pd(v0, _mm256_loadu_pd(b + 4)));
    a1l = _mm256_add_pd(a1l, _mm256_mul_pd(v1, _mm256_loadu_pd(b + 8)));
    a1h = _mm256_add_pd(a1h, _mm256_mul_pd(v1, _mm256_loadu_pd(b + 12)));
    a2l = _mm256_add_pd(a2l, _mm256_mul_pd(v2, _mm256_loadu_pd(b + 16)));
    a2h = _mm256_add_pd(a2h, _mm256_mul_pd(v2, _mm256_loadu_pd(b + 20)));
    a3l = _mm256_add_pd(a3l, _mm256_mul_pd(v3, _mm256_loadu_pd(b + 24)));
    a3h = _mm256_add_pd(a3h, _mm256_mul_pd(v3, _mm256_loadu_pd(b + 28)));
  }
  __m256d sl =
      _mm256_add_pd(_mm256_add_pd(a0l, a1l), _mm256_add_pd(a2l, a3l));
  __m256d sh =
      _mm256_add_pd(_mm256_add_pd(a0h, a1h), _mm256_add_pd(a2h, a3h));
  for (; p < d; ++p) {
    const __m256d v = _mm256_set1_pd(row[p]);
    const double* b = pack + static_cast<std::size_t>(p) * 8;
    sl = _mm256_add_pd(sl, _mm256_mul_pd(v, _mm256_loadu_pd(b)));
    sh = _mm256_add_pd(sh, _mm256_mul_pd(v, _mm256_loadu_pd(b + 4)));
  }
  _mm256_storeu_pd(out, sl);
  _mm256_storeu_pd(out + 4, sh);
}

#endif  // BLINKML_KERNELS_AVX2

// --- Multi-z scatter rows (MatTVecMulti / ApplyTransposedMultiBlocked).
//
// One row's contribution to a d x B partial: part[c * B + b] +=
// trow[b] * arow[c]. Per (c, b) this is the single adds of B independent
// MatTVec columns in the same row order, with the operands in the
// single-vector kernel's product order (x_r * a_rc with multiplication's
// bitwise commutativity); lanes/columns never mix.

void ScatterRowMulti(const double* trow, DIndex bwidth, const double* arow,
                     DIndex d, double* part) {
  for (DIndex c = 0; c < d; ++c) {
    const double ac = arow[c];
    double* prow = part + static_cast<std::size_t>(c) * bwidth;
    for (DIndex b = 0; b < bwidth; ++b) prow[b] += trow[b] * ac;
  }
}

void ScatterSparseRowMulti(const SIndex* cols, const double* vals, SIndex nnz,
                           const double* trow, DIndex bwidth, double* part) {
  for (SIndex e = 0; e < nnz; ++e) {
    const double val = vals[e];
    double* prow = part + static_cast<std::size_t>(cols[e]) * bwidth;
    for (DIndex b = 0; b < bwidth; ++b) prow[b] += trow[b] * val;
  }
}

#if BLINKML_KERNELS_AVX2

__attribute__((target("avx2"))) void ScatterRowMulti8Avx2(const double* trow,
                                                          const double* arow,
                                                          DIndex d,
                                                          double* part) {
  const __m256d tl = _mm256_loadu_pd(trow);
  const __m256d th = _mm256_loadu_pd(trow + 4);
  for (DIndex c = 0; c < d; ++c) {
    const __m256d ac = _mm256_set1_pd(arow[c]);
    double* prow = part + static_cast<std::size_t>(c) * 8;
    _mm256_storeu_pd(
        prow, _mm256_add_pd(_mm256_loadu_pd(prow), _mm256_mul_pd(tl, ac)));
    _mm256_storeu_pd(prow + 4, _mm256_add_pd(_mm256_loadu_pd(prow + 4),
                                             _mm256_mul_pd(th, ac)));
  }
}

__attribute__((target("avx2"))) void ScatterSparseRowMulti8Avx2(
    const SIndex* cols, const double* vals, SIndex nnz, const double* trow,
    double* part) {
  const __m256d tl = _mm256_loadu_pd(trow);
  const __m256d th = _mm256_loadu_pd(trow + 4);
  for (SIndex e = 0; e < nnz; ++e) {
    const __m256d v = _mm256_set1_pd(vals[e]);
    double* prow = part + static_cast<std::size_t>(cols[e]) * 8;
    _mm256_storeu_pd(
        prow, _mm256_add_pd(_mm256_loadu_pd(prow), _mm256_mul_pd(tl, v)));
    _mm256_storeu_pd(prow + 4, _mm256_add_pd(_mm256_loadu_pd(prow + 4),
                                             _mm256_mul_pd(th, v)));
  }
}

#endif  // BLINKML_KERNELS_AVX2

// Sorted-column merge dot of rows i and j, used for light SparseGram
// tiles; the gather path accumulates the same products in the same
// order, so the two paths agree exactly.
double MergeDot(const SparseMatrix& q, SIndex i, SIndex j) {
  const SIndex nnz_i = q.RowNnz(i), nnz_j = q.RowNnz(j);
  const SIndex* cols_i = q.RowCols(i);
  const SIndex* cols_j = q.RowCols(j);
  const double* vals_i = q.RowValues(i);
  const double* vals_j = q.RowValues(j);
  double s = 0.0;
  SIndex a = 0, b = 0;
  while (a < nnz_i && b < nnz_j) {
    if (cols_i[a] < cols_j[b]) {
      ++a;
    } else if (cols_i[a] > cols_j[b]) {
      ++b;
    } else {
      s += vals_i[a] * vals_j[b];
      ++a;
      ++b;
    }
  }
  return s;
}

// 2x2 register-tiled Gram block: fills the UPPER entries g(i, j) for i in
// [i0, i1), j in [max(j0, i), j1). Each dot runs two accumulator chains
// (even/odd k) merged as sa + sb — a fixed order per entry. The mirrored
// lower entries are filled per block afterwards (MirrorBlock): strided
// stores stay out of the FLOP loop and land on a cache-resident block.
void GramBlockUpper(const Matrix& a, DIndex i0, DIndex i1, DIndex j0,
                    DIndex j1, Matrix* g) {
  const DIndex d = a.cols();
  for (DIndex i = i0; i < i1; i += 2) {
    const bool two_i = i + 1 < i1;
    const double* ri0 = a.row_data(i);
    const double* ri1 = two_i ? a.row_data(i + 1) : ri0;
    double* gi0 = g->row_data(i);
    double* gi1 = two_i ? g->row_data(i + 1) : gi0;
    DIndex j = std::max(j0, i);
    for (; j + 2 <= j1; j += 2) {
      const double* rj0 = a.row_data(j);
      const double* rj1 = a.row_data(j + 1);
      double s00a = 0.0, s00b = 0.0, s01a = 0.0, s01b = 0.0;
      double s10a = 0.0, s10b = 0.0, s11a = 0.0, s11b = 0.0;
      DIndex k = 0;
      for (; k + 2 <= d; k += 2) {
        const double a0 = ri0[k], a0b = ri0[k + 1];
        const double a1 = ri1[k], a1b = ri1[k + 1];
        const double b0 = rj0[k], b0b = rj0[k + 1];
        const double b1 = rj1[k], b1b = rj1[k + 1];
        s00a += a0 * b0;
        s00b += a0b * b0b;
        s01a += a0 * b1;
        s01b += a0b * b1b;
        s10a += a1 * b0;
        s10b += a1b * b0b;
        s11a += a1 * b1;
        s11b += a1b * b1b;
      }
      double s00 = s00a + s00b, s01 = s01a + s01b;
      double s10 = s10a + s10b, s11 = s11a + s11b;
      for (; k < d; ++k) {
        s00 += ri0[k] * rj0[k];
        s01 += ri0[k] * rj1[k];
        s10 += ri1[k] * rj0[k];
        s11 += ri1[k] * rj1[k];
      }
      gi0[j] = s00;
      gi0[j + 1] = s01;
      if (two_i) {
        // (i+1, j) sits on the diagonal's lower side when j == i; the
        // value equals the mirrored upper entry bitwise (identical
        // products, identical order), so the row-i+1 slot that matters,
        // (i+1, i+1) = s11, is all the mirror pass will read.
        if (j >= i + 1) gi1[j] = s10;
        gi1[j + 1] = s11;
      }
    }
    for (; j < j1; ++j) {
      const double* rj = a.row_data(j);
      double s0a = 0.0, s0b = 0.0, s1a = 0.0, s1b = 0.0;
      DIndex k = 0;
      for (; k + 2 <= d; k += 2) {
        s0a += ri0[k] * rj[k];
        s0b += ri0[k + 1] * rj[k + 1];
        s1a += ri1[k] * rj[k];
        s1b += ri1[k + 1] * rj[k + 1];
      }
      double s0 = s0a + s0b, s1 = s1a + s1b;
      for (; k < d; ++k) {
        s0 += ri0[k] * rj[k];
        s1 += ri1[k] * rj[k];
      }
      gi0[j] = s0;
      if (two_i && j >= i + 1) gi1[j] = s1;
    }
  }
}

// Copies the upper block (i0..i1) x (j0..j1) to its mirror below the
// diagonal. Runs in the chunk that produced the block, so ownership of
// every (i, j) pair stays with one chunk.
void MirrorBlock(DIndex i0, DIndex i1, DIndex j0, DIndex j1, Matrix* g) {
  for (DIndex i = i0; i < i1; ++i) {
    const double* src = g->row_data(i);
    for (DIndex j = std::max(j0, i + 1); j < j1; ++j) {
      (*g)(j, i) = src[j];
    }
  }
}

}  // namespace

double DotUnrolled(const double* a, const double* b, DIndex n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  DIndex k = 0;
  for (; k + 4 <= n; k += 4) {
    s0 += a[k] * b[k];
    s1 += a[k + 1] * b[k + 1];
    s2 += a[k + 2] * b[k + 2];
    s3 += a[k + 3] * b[k + 3];
  }
  double s = (s0 + s1) + (s2 + s3);
  for (; k < n; ++k) s += a[k] * b[k];
  return s;
}

double SparseDotUnrolled(const SIndex* cols, const double* vals, SIndex nnz,
                         const double* x) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  SIndex k = 0;
  for (; k + 4 <= nnz; k += 4) {
    s0 += vals[k] * x[cols[k]];
    s1 += vals[k + 1] * x[cols[k + 1]];
    s2 += vals[k + 2] * x[cols[k + 2]];
    s3 += vals[k + 3] * x[cols[k + 3]];
  }
  double s = (s0 + s1) + (s2 + s3);
  for (; k < nnz; ++k) s += vals[k] * x[cols[k]];
  return s;
}

Matrix GramRows(const Matrix& a) {
  const DIndex n = a.rows();
  Matrix g(n, n);
  const DIndex nb = (n + kDenseBlock - 1) / kDenseBlock;
  // One chunk item = one block row of the upper triangle. Lanes claim
  // block rows in index order, longest first, so the short late rows fill
  // in behind the long early ones and the triangular costs balance.
  ParallelFor(0, nb, [&](DIndex b0, DIndex b1) {
    for (DIndex bi = b0; bi < b1; ++bi) {
      const DIndex i0 = bi * kDenseBlock;
      const DIndex i1 = std::min(i0 + kDenseBlock, n);
      for (DIndex bj = bi; bj < nb; ++bj) {
        const DIndex j0 = bj * kDenseBlock;
        const DIndex j1 = std::min(j0 + kDenseBlock, n);
        GramBlockUpper(a, i0, i1, j0, j1, &g);
        MirrorBlock(i0, i1, j0, j1, &g);
      }
    }
  }, /*grain=*/1);
  return g;
}

Matrix GramCols(const Matrix& a) {
  const DIndex n = a.rows(), d = a.cols();
  Matrix g(d, d);
  // Entry (i, j) accumulates over 4-row panels of A in ascending row
  // order — a pure function of n, never of the chunking, so any grain is
  // safe (each chunk owns its output rows outright). Two chunks per lane
  // balance the triangular row costs: lanes claim chunks in index order,
  // so the lane that drew the lightest first-wave chunk finishes first and
  // takes the heaviest second-wave one.
  const int lanes = CurrentParallelism();
  const DIndex grain =
      std::max<DIndex>(1, (d + 2 * lanes - 1) / (2 * lanes));
  ParallelFor(0, d, [&](DIndex i0, DIndex i1) {
    DIndex r = 0;
    for (; r + 4 <= n; r += 4) {
      const double* r0 = a.row_data(r);
      const double* r1 = a.row_data(r + 1);
      const double* r2 = a.row_data(r + 2);
      const double* r3 = a.row_data(r + 3);
      for (DIndex i = i0; i < i1; ++i) {
        const double v0 = r0[i], v1 = r1[i], v2 = r2[i], v3 = r3[i];
        if (v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0) continue;
        double* grow = g.row_data(i);
        for (DIndex j = i; j < d; ++j) {
          grow[j] += v0 * r0[j] + v1 * r1[j] + v2 * r2[j] + v3 * r3[j];
        }
      }
    }
    for (; r < n; ++r) {
      const double* row = a.row_data(r);
      for (DIndex i = i0; i < i1; ++i) {
        const double v = row[i];
        if (v == 0.0) continue;
        double* grow = g.row_data(i);
        for (DIndex j = i; j < d; ++j) grow[j] += v * row[j];
      }
    }
  }, grain);
  for (DIndex i = 0; i < d; ++i) {
    for (DIndex j = i + 1; j < d; ++j) g(j, i) = g(i, j);
  }
  return g;
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  BLINKML_CHECK_EQ(a.cols(), b.rows());
  const DIndex m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n);
  // ikj with the p loop register-tiled 4-wide inside 64-deep panels: each
  // C row is loaded/stored once per 4 rows of B instead of once per row,
  // and the panel keeps the active B rows L2-resident. Accumulation into
  // c(i, j) runs panels ascending, p ascending within — fixed order.
  constexpr DIndex kPanel = 64;
  ParallelFor(0, m, [&](DIndex r0, DIndex r1) {
    for (DIndex p0 = 0; p0 < k; p0 += kPanel) {
      const DIndex p1 = std::min(p0 + kPanel, k);
      for (DIndex i = r0; i < r1; ++i) {
        double* crow = c.row_data(i);
        const double* arow = a.row_data(i);
        DIndex p = p0;
        for (; p + 4 <= p1; p += 4) {
          const double a0 = arow[p], a1 = arow[p + 1];
          const double a2 = arow[p + 2], a3 = arow[p + 3];
          if (a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0) continue;
          const double* b0 = b.row_data(p);
          const double* b1 = b.row_data(p + 1);
          const double* b2 = b.row_data(p + 2);
          const double* b3 = b.row_data(p + 3);
          for (DIndex j = 0; j < n; ++j) {
            crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
          }
        }
        for (; p < p1; ++p) {
          const double aip = arow[p];
          if (aip == 0.0) continue;
          const double* brow = b.row_data(p);
          for (DIndex j = 0; j < n; ++j) crow[j] += aip * brow[j];
        }
      }
    }
  }, kPanel);
  return c;
}

Vector MatVec(const Matrix& a, const Vector& x) {
  BLINKML_CHECK_EQ(a.cols(), x.size());
  Vector y(a.rows());
  const double* px = x.data();
  const DotFn dot = SelectDot();
  ParallelFor(0, a.rows(), [&](DIndex b, DIndex e) {
    for (DIndex r = b; r < e; ++r) {
      y[r] = dot(a.row_data(r), px, a.cols());
    }
  });
  return y;
}

Vector MatTVec(const Matrix& a, const Vector& x) {
  BLINKML_CHECK_EQ(a.rows(), x.size());
  const DIndex n = a.rows(), d = a.cols();
  if (n == 0) return Vector(d);  // no chunks: the reduce would return {}
  // Per-chunk partial outputs merged element-wise in chunk order: for any
  // output entry the contributions stay grouped by ascending row blocks,
  // so the result is identical for every thread count (and differs from
  // a serial scatter only by the fixed partial-merge association).
  const ParallelIndex chunks = TransposedChunks(n * d, d);
  const ParallelIndex grain = (n + chunks - 1) / chunks;
  return ParallelReduce(
      ParallelIndex{0}, static_cast<ParallelIndex>(n), Vector(),
      [&](ParallelIndex b, ParallelIndex e) {
        Vector part(d);
        double* py = part.data();
        for (ParallelIndex r = b; r < e; ++r) {
          const double xr = x[r];
          if (xr == 0.0) continue;
          const double* arow = a.row_data(r);
          for (DIndex c = 0; c < d; ++c) py[c] += xr * arow[c];
        }
        return part;
      },
      [](Vector acc, Vector& part) {
        if (acc.size() == 0) return std::move(part);
        acc += part;
        return acc;
      },
      grain);
}

Matrix MatVecMulti(const Matrix& a, const Matrix& zs) {
  BLINKML_CHECK_EQ(a.cols(), zs.cols());
  const DIndex n = a.rows(), d = a.cols();
  const DIndex k = zs.rows();
  Matrix out(n, k);
  if (k == 0 || n == 0) return out;
  const bool avx2 = UseAvx2();
  // One group of up to kMultiVec vectors at a time: interleave the group
  // into a pack (pack[p * width + t] = z_t[p]) so each row of A is loaded
  // once per group and the inner step reads one contiguous slab.
  std::vector<double> pack;
  for (DIndex c0 = 0; c0 < k; c0 += kMultiVec) {
    const DIndex width = std::min<DIndex>(kMultiVec, k - c0);
    pack.assign(static_cast<std::size_t>(d) * width, 0.0);
    for (DIndex t = 0; t < width; ++t) {
      const double* zrow = zs.row_data(c0 + t);
      for (DIndex p = 0; p < d; ++p) {
        pack[static_cast<std::size_t>(p) * width + t] = zrow[p];
      }
    }
    const double* pk = pack.data();
    ParallelFor(0, n, [&](DIndex b, DIndex e) {
      for (DIndex i = b; i < e; ++i) {
        const double* row = a.row_data(i);
        double* orow = out.row_data(i) + c0;
        if (width == kMultiVec) {
#if BLINKML_KERNELS_AVX2
          if (avx2) {
            BatchRowPackedAvx2(row, d, pk, orow);
            continue;
          }
#endif
          BatchRowPacked<kMultiVec>(row, d, pk, orow);
        } else {
          BatchRowPackedTail(row, d, pk, width, orow);
        }
      }
    });
  }
  return out;
}

Matrix MatTVecMulti(const Matrix& a, const Matrix& t) {
  BLINKML_CHECK_EQ(a.rows(), t.rows());
  const DIndex n = a.rows(), d = a.cols();
  const DIndex k = t.cols();
  if (n == 0 || k == 0) return Matrix(d, k);
  const bool avx2 = UseAvx2();
  // The single-vector MatTVec's chunk layout — a pure function of A's
  // shape, independent of the batch width — with d x k partials merged in
  // chunk order: per column the contributions stay grouped by the same
  // ascending row blocks, so each column is bitwise MatTVec(a, t_col).
  // Rows whose whole t-row is zero are skipped (every column would skip);
  // a zero in a non-zero row contributes a +/-0.0 product, which cannot
  // change a finite accumulator's bits.
  const ParallelIndex chunks = TransposedChunks(n * d, d);
  const ParallelIndex grain = (n + chunks - 1) / chunks;
  return ParallelReduce(
      ParallelIndex{0}, static_cast<ParallelIndex>(n), Matrix(),
      [&](ParallelIndex b, ParallelIndex e) {
        Matrix part(d, k);
        double* pd = part.row_data(0);
        for (ParallelIndex r = b; r < e; ++r) {
          const double* trow = t.row_data(r);
          bool any = false;
          for (DIndex c = 0; c < k; ++c) {
            if (trow[c] != 0.0) {
              any = true;
              break;
            }
          }
          if (!any) continue;
          const double* arow = a.row_data(r);
#if BLINKML_KERNELS_AVX2
          if (avx2 && k == kMultiVec) {
            ScatterRowMulti8Avx2(trow, arow, d, pd);
            continue;
          }
#endif
          ScatterRowMulti(trow, k, arow, d, pd);
        }
        return part;
      },
      [](Matrix acc, Matrix& part) {
        if (acc.rows() == 0) return std::move(part);
        acc += part;
        return acc;
      },
      grain);
}

Matrix SparseGram(const SparseMatrix& q) {
  const SIndex n = q.rows();
  const SIndex cols = q.cols();
  Matrix g(n, n);
  if (cols > kSparseGramMaxCols) {
    // Scratch would not be cache- (or even memory-) reasonable; the merge
    // path needs no dense state.
    ParallelFor(0, n, [&](SIndex i0, SIndex i1) {
      for (SIndex i = i0; i < i1; ++i) {
        for (SIndex j = i; j < n; ++j) {
          const double s = MergeDot(q, i, j);
          g(i, j) = s;
          g(j, i) = s;
        }
      }
    }, kFineGrain);
    return g;
  }
  const SIndex tiles = (n + kSparseTile - 1) / kSparseTile;
  // One chunk item = one tile of rows; every (i, j) pair is owned by the
  // tile of min(i, j). The scratch is per-chunk state, but the values any
  // (i, j) reads from it are exactly row min(i,j)'s entries — chunking
  // never changes an entry's arithmetic.
  ParallelFor(0, tiles, [&](SIndex t0, SIndex t1) {
    std::vector<double> scratch;  // interleaved: scratch[col * tile + t]
    for (SIndex t = t0; t < t1; ++t) {
      const SIndex i0 = t * kSparseTile;
      const SIndex i1 = std::min<SIndex>(i0 + kSparseTile, n);
      SIndex tile_nnz = 0;
      for (SIndex i = i0; i < i1; ++i) tile_nnz += q.RowNnz(i);
      if (tile_nnz < kHeavyTileNnz) {
        for (SIndex i = i0; i < i1; ++i) {
          for (SIndex j = i; j < n; ++j) {
            const double s = MergeDot(q, i, j);
            g(i, j) = s;
            g(j, i) = s;
          }
        }
        continue;
      }
      if (scratch.empty()) {
        scratch.assign(static_cast<std::size_t>(cols) * kSparseTile, 0.0);
      }
      // Scatter the tile rows into the interleaved scratch...
      for (SIndex i = i0; i < i1; ++i) {
        const SIndex nnz = q.RowNnz(i);
        const SIndex* rc = q.RowCols(i);
        const double* rv = q.RowValues(i);
        const SIndex slot = i - i0;
        for (SIndex e = 0; e < nnz; ++e) {
          scratch[static_cast<std::size_t>(rc[e] * kSparseTile + slot)] =
              rv[e];
        }
      }
      // ...then every row j >= i0 gathers its dot against ALL tile rows in
      // one pass over its own entries (the column-intersection state is
      // paid once per tile, not once per pair).
      for (SIndex j = i0; j < n; ++j) {
        const SIndex nnz = q.RowNnz(j);
        const SIndex* rc = q.RowCols(j);
        const double* rv = q.RowValues(j);
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (SIndex e = 0; e < nnz; ++e) {
          const double v = rv[e];
          const double* base =
              scratch.data() +
              static_cast<std::size_t>(rc[e]) * kSparseTile;
          s0 += v * base[0];
          s1 += v * base[1];
          s2 += v * base[2];
          s3 += v * base[3];
        }
        const double s[kSparseTile] = {s0, s1, s2, s3};
        const SIndex last = std::min<SIndex>(i1 - 1, j);
        for (SIndex i = i0; i <= last; ++i) {
          g(i, j) = s[i - i0];
          g(j, i) = s[i - i0];
        }
      }
      // Clear only what the tile touched.
      for (SIndex i = i0; i < i1; ++i) {
        const SIndex nnz = q.RowNnz(i);
        const SIndex* rc = q.RowCols(i);
        for (SIndex e = 0; e < nnz; ++e) {
          double* base =
              scratch.data() +
              static_cast<std::size_t>(rc[e]) * kSparseTile;
          for (SIndex slot = 0; slot < kSparseTile; ++slot) base[slot] = 0.0;
        }
      }
    }
  }, /*grain=*/std::max<SIndex>(1, kFineGrain / kSparseTile));
  return g;
}

Vector Apply(const SparseMatrix& a, const Vector& x) {
  BLINKML_CHECK_EQ(static_cast<SIndex>(x.size()), a.cols());
  Vector y(a.rows());
  const double* px = x.data();
  ParallelFor(0, a.rows(), [&](SIndex b, SIndex e) {
    for (SIndex r = b; r < e; ++r) {
      y[r] = SparseDotUnrolled(a.RowCols(r), a.RowValues(r), a.RowNnz(r), px);
    }
  });
  return y;
}

Vector ApplyTransposed(const SparseMatrix& a, const Vector& x) {
  BLINKML_CHECK_EQ(static_cast<SIndex>(x.size()), a.rows());
  const SIndex n = a.rows();
  const SIndex d = a.cols();
  if (n == 0) return Vector(d);  // no chunks: the reduce would return {}
  const ParallelIndex chunks = TransposedChunks(a.nnz(), d);
  const ParallelIndex grain = (n + chunks - 1) / chunks;
  return ParallelReduce(
      ParallelIndex{0}, static_cast<ParallelIndex>(n), Vector(),
      [&](ParallelIndex b, ParallelIndex e) {
        Vector part(d);
        double* py = part.data();
        for (ParallelIndex r = b; r < e; ++r) {
          const double xr = x[r];
          if (xr == 0.0) continue;
          a.AddRowTo(r, xr, py);
        }
        return part;
      },
      [](Vector acc, Vector& part) {
        if (acc.size() == 0) return std::move(part);
        acc += part;
        return acc;
      },
      grain);
}

Matrix ApplyTransposedMulti(const SparseMatrix& a, const Matrix& v) {
  BLINKML_CHECK_EQ(a.rows(), v.rows());
  const SIndex n = a.rows();
  const DIndex r = v.cols();
  const SIndex d = a.cols();
  Matrix out(d, r);
  // One pass over the rows per GROUP of kMultiVec columns: the row's
  // cols/vals are loaded once and scattered into all group columns, an
  // index-load amortization no per-column pass can get. Per output entry
  // the contributions still arrive in ascending row order — bitwise equal
  // to r serial per-column transposed applies. Groups are independent
  // output stripes, so they parallelize with no partials.
  const DIndex groups = (r + kMultiVec - 1) / kMultiVec;
  ParallelFor(0, groups, [&](DIndex g0, DIndex g1) {
    // Column-major stripe accumulator: stripe[j * width + t] for output
    // column c0 + t (out itself is d x r row-major, wrong stride for the
    // inner scatter).
    std::vector<double> stripe;
    for (DIndex g = g0; g < g1; ++g) {
      const DIndex c0 = g * kMultiVec;
      const DIndex width = std::min<DIndex>(kMultiVec, r - c0);
      stripe.assign(static_cast<std::size_t>(d) * width, 0.0);
      for (SIndex i = 0; i < n; ++i) {
        const SIndex nnz = a.RowNnz(i);
        const SIndex* cols = a.RowCols(i);
        const double* vals = a.RowValues(i);
        const double* vrow = v.row_data(i) + c0;
        for (SIndex e = 0; e < nnz; ++e) {
          const double val = vals[e];
          double* dst = stripe.data() +
                        static_cast<std::size_t>(cols[e]) * width;
          for (DIndex t = 0; t < width; ++t) dst[t] += val * vrow[t];
        }
      }
      for (SIndex j = 0; j < d; ++j) {
        const double* src =
            stripe.data() + static_cast<std::size_t>(j) * width;
        double* dst = out.row_data(j) + c0;
        for (DIndex t = 0; t < width; ++t) dst[t] = src[t];
      }
    }
  }, /*grain=*/1);
  return out;
}

Matrix ApplyTransposedMultiBlocked(const SparseMatrix& a, const Matrix& t) {
  BLINKML_CHECK_EQ(a.rows(), static_cast<SIndex>(t.rows()));
  const SIndex n = a.rows();
  const SIndex d = a.cols();
  const DIndex k = t.cols();
  if (n == 0 || k == 0) return Matrix(d, k);
  const bool avx2 = UseAvx2();
  // Same reduction shape as the blocked single-vector ApplyTransposed
  // (chunks from (nnz, cols) alone), widened to d x k partials: column b
  // is bitwise ApplyTransposed(a, t_col_b). Zero-row skip as in
  // MatTVecMulti.
  const ParallelIndex chunks = TransposedChunks(a.nnz(), d);
  const ParallelIndex grain = (n + chunks - 1) / chunks;
  return ParallelReduce(
      ParallelIndex{0}, static_cast<ParallelIndex>(n), Matrix(),
      [&](ParallelIndex b, ParallelIndex e) {
        Matrix part(d, k);
        double* pd = part.row_data(0);
        for (ParallelIndex r = b; r < e; ++r) {
          const double* trow = t.row_data(r);
          bool any = false;
          for (DIndex c = 0; c < k; ++c) {
            if (trow[c] != 0.0) {
              any = true;
              break;
            }
          }
          if (!any) continue;
#if BLINKML_KERNELS_AVX2
          if (avx2 && k == kMultiVec) {
            ScatterSparseRowMulti8Avx2(a.RowCols(r), a.RowValues(r),
                                       a.RowNnz(r), trow, pd);
            continue;
          }
#endif
          ScatterSparseRowMulti(a.RowCols(r), a.RowValues(r), a.RowNnz(r),
                                trow, k, pd);
        }
        return part;
      },
      [](Matrix acc, Matrix& part) {
        if (acc.rows() == 0) return std::move(part);
        acc += part;
        return acc;
      },
      grain);
}

void DenseMargins(const Matrix& x, const double* theta, DIndex b, DIndex e,
                  double* out) {
#if BLINKML_KERNELS_AVX2
  if (UseAvx2()) {
    DenseMarginsAvx2(x, theta, b, e, out);
    return;
  }
#endif
  const DIndex d = x.cols();
  for (DIndex i = b; i < e; ++i) {
    out[i - b] = DotUnrolled(x.row_data(i), theta, d);
  }
}

void AddScaledRow(double alpha, const double* x, DIndex n, double* y) {
#if BLINKML_KERNELS_AVX2
  if (UseAvx2()) {
    AddScaledRowAvx2(alpha, x, n, y);
    return;
  }
#endif
  for (DIndex c = 0; c < n; ++c) y[c] += alpha * x[c];
}

void SparseMargins(const SparseMatrix& x, const double* theta, SIndex b,
                   SIndex e, double* out) {
  for (SIndex i = b; i < e; ++i) {
    out[i - b] =
        SparseDotUnrolled(x.RowCols(i), x.RowValues(i), x.RowNnz(i), theta);
  }
}

Matrix BatchMarginsSparse(const SparseMatrix& x,
                          const std::vector<const Vector*>& thetas) {
  const auto k = static_cast<DIndex>(thetas.size());
  const SIndex d = x.cols();
  Matrix margins(x.rows(), k);
  // Interleave the candidate vectors once (pack[c * k + t] = theta_t[c]):
  // a row entry then gathers one kMultiVec-contiguous slab per column
  // group instead of k scattered singles, and the row's cols/vals loads
  // are paid once per group — the CSR gather dot is load-port-bound, so
  // this is where the batched win comes from. Skipped (per-column
  // unrolled dots) when the pack would not be cache-reasonable.
  const bool pack_ok =
      k > 1 && d * static_cast<SIndex>(k) <= (SIndex{1} << 22);
  std::vector<double> pack;
  if (pack_ok) {
    pack.resize(static_cast<std::size_t>(d) * k);
    ParallelFor(0, d, [&](SIndex c0, SIndex c1) {
      for (SIndex c = c0; c < c1; ++c) {
        double* slot = pack.data() + static_cast<std::size_t>(c) * k;
        for (DIndex t = 0; t < k; ++t) {
          slot[t] = (*thetas[static_cast<std::size_t>(t)])[c];
        }
      }
    }, /*grain=*/1024);
  }
  static_assert(kMultiVec == 8, "BatchRowGatherTail's default case");
  const bool avx2 = UseAvx2();
  ParallelFor(0, x.rows(), [&](SIndex b, SIndex e) {
    for (SIndex i = b; i < e; ++i) {
      const SIndex nnz = x.RowNnz(i);
      const SIndex* cols = x.RowCols(i);
      const double* vals = x.RowValues(i);
      double* orow = margins.row_data(i);
      if (!pack_ok) {
        for (DIndex c = 0; c < k; ++c) {
          orow[c] = SparseDotUnrolled(
              cols, vals, nnz, thetas[static_cast<std::size_t>(c)]->data());
        }
        continue;
      }
      DIndex c0 = 0;
      for (; c0 + kMultiVec <= k; c0 += kMultiVec) {
#if BLINKML_KERNELS_AVX2
        if (avx2) {
          BatchRowGatherAvx2(cols, vals, nnz, pack.data(), k, c0, orow);
          continue;
        }
#endif
        BatchRowGather<kMultiVec>(cols, vals, nnz, pack.data(), k, c0, orow);
      }
      if (c0 < k) {
        BatchRowGatherTail(cols, vals, nnz, pack.data(), k, c0, k - c0, orow);
      }
    }
  });
  return margins;
}

namespace {

// The scalar flip count, one draw per inner step. kHasU hoists the
// "s1 = base" case out of the row loop.
template <bool kHasU>
void CountSignFlipsScalar(const double* base, const double* u, double a1,
                          const double* w, double a2, DIndex h, DIndex width,
                          DIndex first, DIndex* flips) {
  for (DIndex r = 0; r < h; ++r) {
    const double b = base[r];
    const std::size_t row = static_cast<std::size_t>(r) * width;
    for (DIndex t = first; t < width; ++t) {
      const double s1 = kHasU ? u[row + t] * a1 + b : b;
      const double s2 = w[row + t] * a2 + s1;
      flips[t] += (s1 >= 0.0) != (s2 >= 0.0);
    }
  }
}

#if BLINKML_KERNELS_AVX2

// Four lanes of the flip count: per lane the scalar products and sums (a
// multiply, then an add; no FMA), labels from _CMP_GE_OQ (false for NaN,
// as m >= 0.0 is), and a flip adds the all-ones xor mask, i.e. subtracts
// -1, from the lane's 64-bit counter.
template <bool kHasU>
__attribute__((target("avx2"))) inline __m256i FlipQuadAvx2(
    __m256d b, const double* uq, __m256d va1, const double* wq, __m256d va2,
    __m256i count) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d s1 =
      kHasU ? _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(uq), va1), b) : b;
  const __m256d s2 = _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(wq), va2), s1);
  const __m256d flip = _mm256_xor_pd(_mm256_cmp_pd(s1, zero, _CMP_GE_OQ),
                                     _mm256_cmp_pd(s2, zero, _CMP_GE_OQ));
  return _mm256_sub_epi64(count, _mm256_castpd_si256(flip));
}

// Lanes [0, 4) and, for a full group, [4, 8) in ymm registers; the lanes
// of a 5- to 7-wide group past the first quad are left to the scalar loop.
template <bool kHasU>
__attribute__((target("avx2"))) void CountSignFlipsAvx2(
    const double* base, const double* u, double a1, const double* w,
    double a2, DIndex h, DIndex width, DIndex* flips) {
  const bool high = width == 8;
  const __m256d va1 = _mm256_set1_pd(a1);
  const __m256d va2 = _mm256_set1_pd(a2);
  __m256i lo_count = _mm256_setzero_si256();
  __m256i hi_count = _mm256_setzero_si256();
  for (DIndex r = 0; r < h; ++r) {
    const __m256d b = _mm256_set1_pd(base[r]);
    const std::size_t row = static_cast<std::size_t>(r) * width;
    const double* ur = kHasU ? u + row : nullptr;
    lo_count = FlipQuadAvx2<kHasU>(b, ur, va1, w + row, va2, lo_count);
    if (high) {
      hi_count = FlipQuadAvx2<kHasU>(b, kHasU ? ur + 4 : nullptr, va1,
                                     w + row + 4, va2, hi_count);
    }
  }
  alignas(32) long long lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), lo_count);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4), hi_count);
  for (DIndex t = 0; t < (high ? 8 : 4); ++t) flips[t] = lanes[t];
  if (!high) {
    CountSignFlipsScalar<kHasU>(base, u, a1, w, a2, h, width, 4, flips);
  }
}

#endif  // BLINKML_KERNELS_AVX2

}  // namespace

void CountSignFlips(const double* base, const double* u, double a1,
                    const double* w, double a2, DIndex h, DIndex width,
                    DIndex* flips) {
  BLINKML_CHECK(width >= 1 && width <= kMultiVec);
  static_assert(kMultiVec == 8, "CountSignFlipsAvx2 covers two quads");
  for (DIndex t = 0; t < width; ++t) flips[t] = 0;
#if BLINKML_KERNELS_AVX2
  if (width >= 4 && UseAvx2()) {
    if (u != nullptr) {
      CountSignFlipsAvx2<true>(base, u, a1, w, a2, h, width, flips);
    } else {
      CountSignFlipsAvx2<false>(base, u, a1, w, a2, h, width, flips);
    }
    return;
  }
#endif
  if (u != nullptr) {
    CountSignFlipsScalar<true>(base, u, a1, w, a2, h, width, 0, flips);
  } else {
    CountSignFlipsScalar<false>(base, u, a1, w, a2, h, width, 0, flips);
  }
}

}  // namespace kernels
}  // namespace blinkml
