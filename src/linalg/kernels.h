// Deterministic compute kernels for the linear-algebra hot paths.
//
// Every end-to-end BlinkML run is dominated by a handful of dense/sparse
// kernels: the observed-Fisher Gram over the gradient matrix Q, the Grams
// inside the sampler and eigensolver, the CSR matvecs behind every sampler
// draw, and the per-row margin dots of the GLM training/scoring loops.
// This module provides register-tiled, cache-blocked, manually unrolled
// implementations of those kernels; the plain scalar loops they replace
// live in tests/reference/ as the oracle the tests compare against.
//
// Determinism contract (the same one runtime/parallel.h makes): every
// kernel's block schedule and accumulation order is a pure function of the
// problem shape — never of the thread count, the pool, or the chunk a lane
// happens to run. Parallel loops only partition OUTPUT ownership (each
// output element is produced wholly by one chunk, in a fixed order), and
// the one reduction-shaped kernel (transposed matvec) uses a chunk layout
// derived from the shape alone with partials merged serially in chunk
// order. Consequently results are bitwise identical at 1/2/N threads and
// with the runtime disabled. They may differ from the reference loops by
// rounding (multiple accumulator chains reassociate the sums); the bench
// and tests pin that difference below 1e-12 relative.
//
// Unrolled-dot consistency: every margin-shaped kernel computes every dot
// with the ONE canonical unrolled dot (DotUnrolled / SparseDotUnrolled);
// register tiling across candidates or rows never changes a dot's own
// summation order. That is what makes each BatchMargins column bitwise
// equal to a single-margin pass, so a GLM's PredictBatch column equals
// its Predict by construction (models/glm_spec.h).
//
// ISA dispatch: RuntimeOptions::kernel_isa selects AVX2 variants of the
// hottest inner loops (the canonical dot and the four-row dense margins,
// the GLM row update, the sparse batched gather row, the packed dense row
// behind MatVecMulti, the multi-z scatter slabs and the Monte-Carlo sign
// flip count). The vector variants keep the scalar association exactly —
// the 4 unrolled chains become the 4 lanes of one ymm register merged in
// the same (s0+s1)+(s2+s3) order (or one lane per batched column, row
// element or draw), and FMA is never used — so AVX2 output is bitwise
// identical to the scalar output.

#ifndef BLINKML_LINALG_KERNELS_H_
#define BLINKML_LINALG_KERNELS_H_

#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "linalg/vector.h"

namespace blinkml {
namespace kernels {

// --- Block schedule constants (fixed: part of the determinism contract).

/// Square output block of the dense Gram kernels: a 64-row panel of a
/// paper-sized operand (d <= ~1k) stays L2-resident while the paired
/// block streams against it.
inline constexpr Matrix::Index kDenseBlock = 64;

/// Rows per SparseGram tile: one scatter of a tile serves the
/// column-intersection of every pair (tile row, later row), and the
/// interleaved scratch keeps a tile's slots on one cache line per column.
inline constexpr SparseMatrix::Index kSparseTile = 4;

/// A tile whose total nnz is below this runs the plain pairwise sorted
/// merges instead (scatter + clear would not amortize over light rows).
inline constexpr SparseMatrix::Index kHeavyTileNnz = 64;

/// SparseGram falls back to the merge path entirely when the column count
/// would make the per-chunk scratch unreasonable (cols * tile * 8 bytes).
inline constexpr SparseMatrix::Index kSparseGramMaxCols = 1 << 19;

/// Column-group width of the multi-vector kernels (batched margins,
/// multi-column transposed apply): one load of a row's indices/values
/// serves kMultiVec output columns, the amortization that makes these
/// kernels beat the per-vector loops even on one core (a CSR gather dot
/// is load-port-bound, not FLOP-bound, so single-vector ILP cannot).
inline constexpr Matrix::Index kMultiVec = 8;

// --- Canonical unrolled dots (see the consistency note above).

/// Four-accumulator dot product; fixed reassociation
/// (s0+s1)+(s2+s3) then the scalar tail.
double DotUnrolled(const double* a, const double* b, Matrix::Index n);

/// Four-accumulator sparse-times-dense gather dot.
double SparseDotUnrolled(const SparseMatrix::Index* cols, const double* vals,
                         SparseMatrix::Index nnz, const double* x);

/// Observability hook for the coarse dispatch wrappers (Matrix::GramRows
/// etc.): bumps kernel_calls_total{kernel=...} in the global obs
/// registry. Called once per Gram dispatch — never per row — so the
/// registry lookup cost is invisible next to the kernel.
void NoteKernelDispatch(const char* kernel);

// --- Dense kernels.

/// A A^T with 2x2 register tiles over kDenseBlock output blocks; parallel
/// over block rows of the upper triangle.
Matrix GramRows(const Matrix& a);

/// A^T A accumulated over 4-row panels of A; parallel over output rows.
Matrix GramCols(const Matrix& a);

/// A * B, ikj order with 4-wide p-register-tiling inside 64-row p-panels;
/// parallel over rows of C.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// A x with unrolled row dots; parallel over rows.
Vector MatVec(const Matrix& a, const Vector& x);

/// A^T x via per-chunk partial outputs merged in fixed chunk order.
Vector MatTVec(const Matrix& a, const Vector& x);

// --- Multi-z kernels (batched Monte-Carlo draws and scores).

/// A zs^T for a batch of B vectors given as the ROWS of zs (B x a.cols()):
/// out is a.rows() x B with out.col(b) == MatVec(a, zs.row(b)) bitwise.
/// Each kMultiVec group is interleaved into a pack once so each row of A
/// is loaded once per group and every step reads one contiguous slab;
/// each output entry's accumulation is exactly the canonical DotUnrolled.
/// The one dense multi-vector dot kernel: it backs ParamSampler::DrawBatch
/// (A = the sampler factor) and dense BatchMargins (A = the feature rows,
/// zs = the stacked candidate thetas).
Matrix MatVecMulti(const Matrix& a, const Matrix& zs);

/// A^T T for a dense T (a.rows() x B, column b = vector b): out is
/// a.cols() x B with out.col(b) == MatTVec(a, t.col(b)) bitwise. Uses the
/// single-vector kernel's chunk layout — TransposedChunks(rows*cols,
/// cols), a pure function of A's shape, independent of B — with d x B
/// partials merged in chunk order, so per column the partial-merge
/// association is identical to MatTVec's.
Matrix MatTVecMulti(const Matrix& a, const Matrix& t);

// --- Sparse kernels.

/// Q Q^T: heavy row tiles are scattered once into an interleaved dense
/// scratch and every later row gathers kSparseTile dots from it in one
/// pass over its entries; light tiles keep the pairwise sorted merges.
Matrix SparseGram(const SparseMatrix& q);

/// A x with unrolled gather dots; parallel over rows.
Vector Apply(const SparseMatrix& a, const Vector& x);

/// A^T x via per-chunk partial outputs merged in fixed chunk order. The
/// chunk count is a pure function of (nnz, cols): scatters below ~4 rounds
/// of the output vector run as one chunk (a partial per chunk must
/// amortize its own zero+merge traffic).
Vector ApplyTransposed(const SparseMatrix& a, const Vector& x);

/// A^T V for a dense V (n x r): one pass over the rows per kMultiVec
/// column group, scattering each entry into the whole group (index loads
/// amortized r-fold within a group). Per output entry contributions stay
/// in ascending row order — bitwise equal to r serial-scatter transposed
/// applies. Groups parallelize as independent output stripes. Backs
/// ParamSampler::DenseCovariance.
Matrix ApplyTransposedMulti(const SparseMatrix& a, const Matrix& v);

/// A^T T like ApplyTransposedMulti, but with the BLOCKED single-vector
/// kernel's reduction shape: chunk layout TransposedChunks(nnz, cols)
/// (independent of B), per-chunk d x B partials merged in chunk order.
/// Column b is bitwise equal to ApplyTransposed(a, t.col(b)) — the
/// association DrawWithZ's sparse-Gram backend produces — which
/// ApplyTransposedMulti (ascending-row = serial-scatter association) is not.
Matrix ApplyTransposedMultiBlocked(const SparseMatrix& a, const Matrix& t);

// --- GLM margin kernels (consumed by models/glm_spec.h).

/// out[i - b] = <row i, theta> for i in [b, e), via DotUnrolled. The AVX2
/// variant runs four rows at a time against one load of theta, each row
/// on its own chain, so every margin keeps DotUnrolled's bits.
void DenseMargins(const Matrix& x, const double* theta, Matrix::Index b,
                  Matrix::Index e, double* out);

/// y[c] += alpha * x[c] for c in [0, n): the dense row update of the GLM
/// gradient passes (Dataset::AddRowTo). The AVX2 variant multiplies, then
/// adds, so it is bitwise the scalar loop.
void AddScaledRow(double alpha, const double* x, Matrix::Index n, double* y);

/// Sparse counterpart via SparseDotUnrolled.
void SparseMargins(const SparseMatrix& x, const double* theta,
                   SparseMatrix::Index b, SparseMatrix::Index e, double* out);

/// margins(i, k) = <row i, theta_k> for CSR rows: one pass over the rows,
/// every index+value load serves a kMultiVec candidate group (candidates
/// interleaved into a pack so a gather lands on one contiguous slab per
/// group). Each entry's accumulation order is exactly SparseDotUnrolled,
/// so column k equals a single-margin pass for theta_k bitwise. Dense
/// rows take MatVecMulti, which keeps the same invariant with
/// DotUnrolled.
Matrix BatchMarginsSparse(const SparseMatrix& x,
                          const std::vector<const Vector*>& thetas);

// --- Monte-Carlo verdict kernel (consumed by models/glm_spec.h).

/// Binary verdicts of one group of 1 <= width <= kMultiVec draws over h
/// holdout rows, with u and w row-major h x width score blocks. For row r
/// and draw t:
///   s1 = u[r * width + t] * a1 + base[r]   (s1 = base[r] when u is null)
///   s2 = w[r * width + t] * a2 + s1
/// flips[t] counts the rows whose sign labels (m >= 0.0, so NaN labels 0)
/// differ between s1 and s2. The AVX2 variant runs the draws in the lanes
/// of two ymm registers with an ordered >= compare; both variants
/// multiply, then add, so they count exactly the same rows.
void CountSignFlips(const double* base, const double* u, double a1,
                    const double* w, double a2, Matrix::Index h,
                    Matrix::Index width, Matrix::Index* flips);

}  // namespace kernels
}  // namespace blinkml

#endif  // BLINKML_LINALG_KERNELS_H_
