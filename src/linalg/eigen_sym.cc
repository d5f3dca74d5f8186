#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "runtime/parallel.h"
#include "util/string_util.h"

namespace blinkml {

namespace {

using Index = Matrix::Index;

double Hypot(double a, double b) { return std::hypot(a, b); }

// Row ranges below this size run their chunk loops inline: the pool
// handoff costs more than the O(rows * n) work of a Householder step.
// Both paths go through ParallelForChunks — the inline one under a
// one-lane runtime scope — so there is exactly one chunk-to-range
// mapping, and the threshold (a pure function of the range size) never
// changes results; see the determinism contract in runtime/parallel.h.
constexpr ParallelIndex kParallelEigenRows = 128;

void ForEigenChunks(
    ParallelIndex rows, const ChunkLayout& layout,
    const std::function<void(ParallelIndex, ParallelIndex, ParallelIndex)>&
        body) {
  if (rows >= kParallelEigenRows) {
    ParallelForChunks(0, rows, layout, body);
  } else {
    RuntimeOptions serial;
    serial.num_threads = 1;
    RuntimeScope scope(serial);
    ParallelForChunks(0, rows, layout, body);
  }
}

// Householder reduction of symmetric z (n x n, modified in place) to
// tridiagonal form. On exit: d holds the diagonal, e the sub-diagonal
// (e[0] unused), and — when want_vectors — z holds the orthogonal matrix Q
// of the similarity transform Q^T A Q = T.
//
// Loops are arranged so every O(n^3) inner loop walks matrix rows
// contiguously (k-outer accumulation instead of column dot products);
// this matters: the naive formulation is ~10x slower at n = 1024.
void Tridiagonalize(Matrix* z_mat, Vector* d_vec, Vector* e_vec,
                    bool want_vectors) {
  Matrix& z = *z_mat;
  Vector& d = *d_vec;
  Vector& e = *e_vec;
  const Index n = z.rows();

  // Per-chunk partial rows for the parallel accumulations below (e := A v
  // and g := v^T Z). The steps' row ranges shrink from n-1 to 1 and the
  // chunk count is not monotone in the range size, so size the buffer by
  // the bound over every sub-range, not by the largest layout alone.
  const ParallelIndex max_chunks =
      MaxChunksForRanges(static_cast<ParallelIndex>(n), kFineGrain);
  std::vector<double> partials(
      static_cast<std::size_t>(std::max<ParallelIndex>(max_chunks, 1) * n));

  for (Index i = n - 1; i >= 1; --i) {
    const Index l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    const double* zi = z.row_data(i);
    if (l > 0) {
      for (Index k = 0; k <= l; ++k) scale += std::fabs(zi[k]);
      if (scale == 0.0) {
        e[i] = zi[l];
      } else {
        double* zi_mut = z.row_data(i);
        const double inv_scale = 1.0 / scale;
        for (Index k = 0; k <= l; ++k) {
          zi_mut[k] *= inv_scale;
          h += zi_mut[k] * zi_mut[k];
        }
        double f = zi_mut[l];
        double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        zi_mut[l] = f - g;
        // e[0..l] := (A v) / h where v is the Householder vector stored in
        // row i. Only the lower triangle of A is valid; accumulate with
        // row-contiguous sweeps: for each row j, its contribution to
        // e[0..j] uses row j directly, and its contribution to e[j] from
        // rows k > j is gathered when visiting those rows. Row chunks run
        // in parallel, each into its own partial slot; slots combine in
        // chunk order, so the result is identical for any thread count.
        const ParallelIndex rows = static_cast<ParallelIndex>(l) + 1;
        const ChunkLayout layout = ComputeChunks(rows, kFineGrain);
        ForEigenChunks(
            rows, layout,
            [&](ParallelIndex chunk, ParallelIndex jb, ParallelIndex je) {
              double* pe = partials.data() + chunk * n;
              std::fill(pe, pe + rows, 0.0);
              for (ParallelIndex j = jb; j < je; ++j) {
                const double* zj = z.row_data(j);
                const double vj = zi_mut[j];
                double acc = 0.0;
                for (ParallelIndex k = 0; k < j; ++k) {
                  acc += zj[k] * zi_mut[k];  // A(j,k) * v_k
                  pe[k] += zj[k] * vj;       // A(k,j) * v_j, symmetric image
                }
                pe[j] += acc + zj[j] * vj;
              }
            });
        for (Index k = 0; k <= l; ++k) e[k] = 0.0;
        for (ParallelIndex c = 0; c < layout.num_chunks; ++c) {
          const double* pe = partials.data() + c * n;
          for (Index k = 0; k <= l; ++k) e[k] += pe[k];
        }
        f = 0.0;
        const double inv_h = 1.0 / h;
        for (Index j = 0; j <= l; ++j) {
          e[j] *= inv_h;
          f += e[j] * zi_mut[j];
        }
        const double hh = f / (h + h);
        for (Index j = 0; j <= l; ++j) e[j] -= hh * zi_mut[j];
        // Rank-2 update A := A - v w^T - w v^T on the lower triangle,
        // row-contiguous. Rows are independent, so the parallel split is
        // bitwise identical to the serial sweep.
        ForEigenChunks(
            rows, layout,
            [&](ParallelIndex, ParallelIndex jb, ParallelIndex je) {
              for (ParallelIndex j = jb; j < je; ++j) {
                const double vj = zi_mut[j];
                const double wj = e[j];
                double* zj = z.row_data(j);
                for (ParallelIndex k = 0; k <= j; ++k) {
                  zj[k] -= vj * e[k] + wj * zi_mut[k];
                }
              }
            });
      }
    } else {
      e[i] = zi[l];
    }
    d[i] = h;
  }

  if (want_vectors) d[0] = 0.0;
  e[0] = 0.0;

  for (Index i = 0; i < n; ++i) {
    if (want_vectors) {
      const Index l = i - 1;
      if (d[i] != 0.0) {
        // Accumulate the transform: for the leading l+1 block,
        // Z := (I - v v^T / h) Z with v in row i. Row-contiguous form:
        // g[j] = sum_k v_k Z(k, j) computed k-outer, then
        // Z(k, j) -= g[j] * v_k, also k-outer.
        const double* vi = z.row_data(i);
        const ParallelIndex rows = static_cast<ParallelIndex>(l) + 1;
        const ChunkLayout layout = ComputeChunks(rows, kFineGrain);
        // g[j] = sum_k v_k Z(k, j), k-outer per chunk into a partial slot;
        // slots combine in chunk order (thread-count independent).
        ForEigenChunks(
            rows, layout,
            [&](ParallelIndex chunk, ParallelIndex kb, ParallelIndex ke) {
              double* pg = partials.data() + chunk * n;
              std::fill(pg, pg + rows, 0.0);
              for (ParallelIndex k = kb; k < ke; ++k) {
                const double vk = vi[k];
                if (vk == 0.0) continue;
                const double* zk = z.row_data(k);
                for (ParallelIndex j = 0; j < rows; ++j) {
                  pg[j] += vk * zk[j];
                }
              }
            });
        std::vector<double> g(static_cast<std::size_t>(l + 1), 0.0);
        for (ParallelIndex c = 0; c < layout.num_chunks; ++c) {
          const double* pg = partials.data() + c * n;
          for (ParallelIndex j = 0; j < rows; ++j) {
            g[static_cast<std::size_t>(j)] += pg[j];
          }
        }
        // vi entries were scaled by 1/h when stored column-wise in the
        // classical algorithm; here divide once during the update. Rows of
        // Z are independent, so the parallel split is bitwise identical to
        // the serial sweep.
        const double inv_h = 1.0 / d[i];
        ForEigenChunks(
            rows, layout,
            [&](ParallelIndex, ParallelIndex kb, ParallelIndex ke) {
              for (ParallelIndex k = kb; k < ke; ++k) {
                const double vk = vi[k] * inv_h;
                if (vk == 0.0) continue;
                double* zk = z.row_data(k);
                for (ParallelIndex j = 0; j < rows; ++j) {
                  zk[j] -= vk * g[static_cast<std::size_t>(j)];
                }
              }
            });
      }
      d[i] = z(i, i);
      z(i, i) = 1.0;
      for (Index j = 0; j < i; ++j) {
        z(j, i) = 0.0;
        z(i, j) = 0.0;
      }
    } else {
      d[i] = z(i, i);
    }
  }
}

// Applies a deferred chain of Givens rotations to zt: rotation j rotates
// Z columns (i, i+1) with i = m - 1 - j, which in the transposed storage
// is rows (i, i+1). Elements interact only within one k (a zt column), so
// the chain is applied per k-chunk in parallel — one coarse region per
// sweep instead of one pool handoff per O(n)-flop rotation — and the
// per-element operation sequence is exactly the serial one (bitwise
// identical at any thread count; runtime/parallel.h).
void ApplyRotationChain(Matrix* zt_mat, Index m,
                        const std::vector<double>& rot_s,
                        const std::vector<double>& rot_c) {
  Matrix& zt = *zt_mat;
  const auto cols = static_cast<ParallelIndex>(zt.cols());
  const auto count = static_cast<Index>(rot_s.size());
  auto apply = [&](ParallelIndex kb, ParallelIndex ke) {
    for (Index j = 0; j < count; ++j) {
      const Index i = m - 1 - j;
      const double s = rot_s[static_cast<std::size_t>(j)];
      const double c = rot_c[static_cast<std::size_t>(j)];
      double* row_i = zt.row_data(i);
      double* row_i1 = zt.row_data(i + 1);
      for (ParallelIndex k = kb; k < ke; ++k) {
        const double t = row_i1[k];
        row_i1[k] = s * row_i[k] + c * t;
        row_i[k] = c * row_i[k] - s * t;
      }
    }
  };
  if (cols >= kParallelEigenRows) {
    ParallelForChunks(0, cols, ComputeChunks(cols, kDefaultGrain),
                      [&](ParallelIndex, ParallelIndex kb, ParallelIndex ke) {
                        apply(kb, ke);
                      });
  } else {
    apply(0, cols);
  }
}

// Implicit-shift QL iteration on the tridiagonal (d, e). When want_vectors,
// accumulates the rotations into zt, which holds the eigenvector matrix
// TRANSPOSED (row r of zt is the r-th column of Z): a Givens rotation of
// columns (i, i+1) of Z touches two contiguous rows of zt. The d/e
// recurrence is sequential, so each sweep's rotation coefficients are
// recorded and the zt accumulation is applied afterwards as one batched,
// column-parallel chain (ApplyRotationChain).
Status QlImplicit(Vector* d_vec, Vector* e_vec, Matrix* zt_mat,
                  bool want_vectors) {
  Vector& d = *d_vec;
  Vector& e = *e_vec;
  Matrix& zt = *zt_mat;
  const Index n = d.size();
  constexpr int kMaxSweeps = 50;

  for (Index i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  std::vector<double> rot_s;
  std::vector<double> rot_c;
  if (want_vectors) {
    rot_s.reserve(static_cast<std::size_t>(n));
    rot_c.reserve(static_cast<std::size_t>(n));
  }

  for (Index l = 0; l < n; ++l) {
    int iter = 0;
    Index m;
    do {
      for (m = l; m < n - 1; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 1e-300 ||
            std::fabs(e[m]) <= std::numeric_limits<double>::epsilon() * dd) {
          break;
        }
      }
      if (m != l) {
        if (++iter > kMaxSweeps) {
          return Status::NotConverged(
              StrFormat("QL iteration exceeded %d sweeps", kMaxSweeps));
        }
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = Hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        rot_s.clear();
        rot_c.clear();
        for (Index i = m - 1; i >= l; --i) {
          double f = s * e[i];
          const double b = c * e[i];
          r = Hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            // No rotation this iteration: the chain recorded so far is
            // exactly what the element-wise serial version had applied.
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          if (want_vectors) {
            rot_s.push_back(s);
            rot_c.push_back(c);
          }
        }
        if (want_vectors && !rot_s.empty()) {
          ApplyRotationChain(&zt, m, rot_s, rot_c);
        }
        if (r == 0.0 && m - 1 >= l) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return Status::OK();
}

// Sorts eigenvalues ascending, permuting the (transposed) eigenvector rows
// to match, and returns the eigenvectors in conventional column form.
void SortAndTranspose(Vector* d, Matrix* zt, Matrix* z_out,
                      bool want_vectors) {
  const Index n = d->size();
  std::vector<Index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](Index a, Index b) { return (*d)[a] < (*d)[b]; });
  Vector sorted_d(n);
  for (Index i = 0; i < n; ++i) sorted_d[i] = (*d)[order[i]];
  *d = std::move(sorted_d);
  if (want_vectors) {
    *z_out = Matrix(n, n);
    for (Index i = 0; i < n; ++i) {
      const double* src = zt->row_data(order[i]);
      for (Index r = 0; r < n; ++r) (*z_out)(r, i) = src[r];
    }
  }
}

Result<SymmetricEigen> EigenSymImpl(const Matrix& a, bool want_vectors) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("EigenSym requires a square matrix");
  }
  const Index n = a.rows();
  if (n == 0) {
    return SymmetricEigen{Vector(), Matrix()};
  }
  // Work on the symmetrized copy to absorb round-off asymmetry.
  Matrix z(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) z(i, j) = 0.5 * (a(i, j) + a(j, i));
  }
  Vector d(n);
  Vector e(n);
  if (n == 1) {
    d[0] = z(0, 0);
    z(0, 0) = 1.0;
    return SymmetricEigen{std::move(d), std::move(z)};
  }
  Tridiagonalize(&z, &d, &e, want_vectors);
  // QL works on the transposed accumulation (see QlImplicit).
  Matrix zt;
  if (want_vectors) zt = z.Transposed();
  BLINKML_RETURN_NOT_OK(QlImplicit(&d, &e, &zt, want_vectors));
  Matrix vectors;
  SortAndTranspose(&d, &zt, &vectors, want_vectors);
  return SymmetricEigen{std::move(d), std::move(vectors)};
}

}  // namespace

Result<SymmetricEigen> EigenSym(const Matrix& a) {
  return EigenSymImpl(a, /*want_vectors=*/true);
}

Result<Vector> EigenSymValues(const Matrix& a) {
  BLINKML_ASSIGN_OR_RETURN(SymmetricEigen eig,
                           EigenSymImpl(a, /*want_vectors=*/false));
  return std::move(eig.eigenvalues);
}

}  // namespace blinkml
