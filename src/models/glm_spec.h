// One model class specification for the single-output generalized linear
// models: linear, logistic and Poisson regression.
//
// The three GLMs share q_i = (mu(theta^T x_i) - y_i) x_i and differ only in
// the per-row arithmetic of the mean function mu. GlmSpec<Link> implements
// every pass once — the objective/gradient reductions, per-example
// gradients and their coefficients, predictions, linear scores, the
// prediction difference and the weighted closed-form Hessian — and a model
// class supplies a Link plus name() and task().
//
// Link contract (static member functions):
//   LossAndCoeff(m, y, &coeff) — per-row loss at margin m; may share
//       intermediate transcendentals with the coefficient (its coeff then
//       differs from Coeff's by rounding only);
//   Coeff(m, y)       — per-row gradient coefficient c of q_i = c x_i;
//   Predict(m)        — the prediction (class label or value) at margin m;
//   HessianWeight(m)  — w_i of H = (1/n) X^T diag(w) X + beta I.
//
// Margins for a panel of rows come from the unrolled dot kernels
// (linalg/kernels.h) and the link's fused LossAndCoeff shares one exp
// between the loss and the coefficient: one streaming pass over the data
// with several independent FLOP chains. The loss/gradient passes reduce
// per-chunk (loss, grad) partials over the runtime's fixed chunk -> slot
// mapping, so they are bitwise independent of the thread count (see
// runtime/parallel.h).
//
// Predict and PredictBatch are final: both apply the same Link::Predict to
// margins of the one canonical unrolled dot (ForMargins / BatchMargins),
// so a PredictBatch column equals Predict bitwise by construction, and
// neither reads any spec state but theta. That is what lets the
// hyperparameter search score a same-type group of candidates from one
// prediction matrix (session/hyperparam_search.h).
//
// Each model header forward-declares its Link and declares
// `extern template class GlmSpec<ItsLink>;`. The model's source file
// defines the Link, whose functions then inline into every pass, and holds
// the one explicit instantiation.

#ifndef BLINKML_MODELS_GLM_SPEC_H_
#define BLINKML_MODELS_GLM_SPEC_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "linalg/kernels.h"
#include "linalg/vector.h"
#include "models/model_spec.h"
#include "runtime/parallel.h"

namespace blinkml {
namespace internal {

/// Rows per margin panel of the fused passes: margins for a panel are
/// computed by the unrolled kernels into a stack buffer, then the link
/// runs over them. Fixed — panel boundaries are part of no reduction
/// layout, but keeping them pure keeps the arithmetic trivially
/// thread-count independent.
inline constexpr ParallelIndex kGlmPanel = 64;

/// Margins for rows [b, e) of `data` into out[0 .. e-b) via the canonical
/// unrolled dots (the same dots BatchMargins uses).
inline void PanelMargins(const Dataset& data, const Vector& theta,
                         ParallelIndex b, ParallelIndex e, double* out) {
  if (data.is_sparse()) {
    kernels::SparseMargins(data.sparse(), theta.data(), b, e, out);
  } else {
    kernels::DenseMargins(data.dense(), theta.data(), b, e, out);
  }
}

/// Lookahead bound of the margin walk: it prefetches at most this many
/// bytes of the next panel, so wide dense rows never prefetch megabytes.
inline constexpr std::size_t kPanelPrefetchBytes = 64 * 1024;

/// Prefetches bytes [0, size) of one array, a slice per Step(). The
/// addresses are the array's base plus an offset below size, so no pointer
/// outside the array is ever formed.
class PrefetchCursor {
 public:
  PrefetchCursor() = default;
  PrefetchCursor(const void* base, std::size_t size, std::size_t slices)
      : base_(static_cast<const char*>(base)),
        size_(size),
        step_((size + slices - 1) / slices) {}

  void Step() {
    constexpr std::size_t kLine = 64;
    const std::size_t stop = std::min(size_, next_ + step_);
    for (; next_ < stop; next_ += kLine) {
#ifndef NDEBUG
      // Debug builds also read the byte, so AddressSanitizer checks that
      // every prefetched address lies inside the array.
      static_cast<void>(*static_cast<const volatile char*>(base_ + next_));
#endif
      __builtin_prefetch(base_ + next_);
    }
  }

 private:
  const char* base_ = nullptr;
  std::size_t size_ = 0;
  std::size_t step_ = 0;
  std::size_t next_ = 0;
};

/// The lookahead over rows [b, e): the dense row block, or the CSR column
/// and value ranges, capped at kPanelPrefetchBytes in all and spread over
/// `slices` Step() calls.
struct PanelPrefetch {
  PrefetchCursor first, second;

  PanelPrefetch(const Dataset& data, ParallelIndex b, ParallelIndex e,
                ParallelIndex slices) {
    if (b >= e) return;
    const auto n = static_cast<std::size_t>(slices);
    if (data.is_sparse()) {
      const SparseMatrix& x = data.sparse();
      std::size_t nnz = 0;
      for (ParallelIndex r = b; r < e; ++r) {
        nnz += static_cast<std::size_t>(x.RowNnz(r));
      }
      constexpr std::size_t kHalf = kPanelPrefetchBytes / 2;
      first = PrefetchCursor(
          x.RowCols(b), std::min(nnz * sizeof(SparseMatrix::Index), kHalf), n);
      second = PrefetchCursor(x.RowValues(b),
                              std::min(nnz * sizeof(double), kHalf), n);
      return;
    }
    const Matrix& x = data.dense();
    const auto bytes =
        static_cast<std::size_t>((e - b) * x.cols()) * sizeof(double);
    first = PrefetchCursor(x.row_data(b),
                           std::min(bytes, kPanelPrefetchBytes), n);
  }

  void Step() {
    first.Step();
    second.Step();
  }
};

/// The one margin walk every pass shares: calls row_fn(i, margin_i) for i
/// in [b, e), with the margins of each panel computed by the unrolled dots
/// into a stack buffer. Keeping the walk here — not copy-pasted per pass —
/// is what keeps the passes' margin arithmetic identical by construction.
/// While a panel's rows run through row_fn, the next panel's rows are
/// prefetched a slice per row, so the pass streams memory during the link
/// and the row updates instead of only during the dots. Prefetching
/// changes no arithmetic.
template <typename RowFn>
inline void ForMargins(const Dataset& data, const Vector& theta,
                       ParallelIndex b, ParallelIndex e, const RowFn& row_fn) {
  double margins[kGlmPanel];
  for (ParallelIndex p = b; p < e; p += kGlmPanel) {
    const ParallelIndex pe = std::min(p + kGlmPanel, e);
    PanelMargins(data, theta, p, pe, margins);
    PanelPrefetch next(data, pe, std::min(pe + kGlmPanel, e), pe - p);
    for (ParallelIndex i = p; i < pe; ++i) {
      next.Step();
      row_fn(i, margins[i - p]);
    }
  }
}

/// Per-chunk partial of an averaged-loss + full-gradient data pass.
struct LossGradPartial {
  double loss = 0.0;
  Vector grad;  // empty until a chunk seeds it
};

/// Chunk-order combine; the first partial seeds the accumulator so the
/// empty init never allocates.
inline LossGradPartial CombineLossGrad(LossGradPartial acc,
                                       LossGradPartial& part) {
  if (acc.grad.size() == 0) return std::move(part);
  acc.loss += part.loss;
  acc.grad += part.grad;
  return acc;
}

}  // namespace internal

template <typename Link>
class GlmSpec : public ModelSpec {
 public:
  /// `l2` is the paper's beta; it must be finite and non-negative.
  explicit GlmSpec(double l2) : l2_(l2) {
    BLINKML_CHECK_MSG(std::isfinite(l2) && l2 >= 0.0,
                      "l2 must be finite and non-negative");
  }

  Vector::Index ParamDim(const Dataset& data) const override {
    return data.dim();
  }
  double l2() const override { return l2_; }

  double Objective(const Vector& theta, const Dataset& data) const override;
  void Gradient(const Vector& theta, const Dataset& data,
                Vector* grad) const override;
  double ObjectiveAndGradient(const Vector& theta, const Dataset& data,
                              Vector* grad) const override;
  void PerExampleGradients(const Vector& theta, const Dataset& data,
                           Matrix* out) const override;
  bool has_sparse_gradients() const override { return true; }
  bool has_gradient_coeffs() const override { return true; }
  void PerExampleGradientCoeffs(const Vector& theta, const Dataset& data,
                                Vector* coeffs) const override;

  void Predict(const Vector& theta, const Dataset& data,
               Vector* out) const final;
  void PredictBatch(const std::vector<const Vector*>& thetas,
                    const Dataset& data, Matrix* out) const final;
  bool has_batch_predictions() const override { return true; }
  double Diff(const Vector& theta1, const Vector& theta2,
              const Dataset& holdout) const override;

  bool has_linear_scores() const override { return true; }
  /// Scores are the margins theta^T x (one column).
  Matrix Scores(const Vector& theta, const Dataset& data) const override;
  Matrix ScoresBatch(const std::vector<const Vector*>& thetas,
                     const Dataset& data) const override;
  /// kBinary: the fraction of rows whose predicted labels differ.
  /// kRegression: the RMS difference of the predictions, normalized by
  /// LabelScale(holdout) (paper Appendix C).
  double DiffFromScores(const Matrix& scores1, const Matrix& scores2,
                        const Dataset& holdout) const override;

  bool has_closed_form_hessian() const override { return true; }
  /// H = (1/n) X^T diag(Link::HessianWeight(theta^T x)) X + beta I,
  /// accumulated row by row.
  Result<Matrix> ClosedFormHessian(const Vector& theta,
                                   const Dataset& data) const override;

 private:
  /// row_fn(i, margin_i) for every row, row-parallel with the default
  /// grain; each row's output is owned by one chunk.
  template <typename RowFn>
  static void ForEachMargin(const Vector& theta, const Dataset& data,
                            const RowFn& row_fn) {
    BLINKML_CHECK_EQ(theta.size(), data.dim());
    ParallelFor(0, data.num_rows(), [&](ParallelIndex b, ParallelIndex e) {
      internal::ForMargins(data, theta, b, e, row_fn);
    });
  }

  double l2_;
};

// The trainer's gradient loop: averaged loss + gradient of the negative
// log-likelihood plus the L2 term, fused in one data pass.
template <typename Link>
double GlmSpec<Link>::ObjectiveAndGradient(const Vector& theta,
                                           const Dataset& data,
                                           Vector* grad) const {
  BLINKML_CHECK_EQ(theta.size(), data.dim());
  BLINKML_CHECK_GT(data.num_rows(), 0);
  const auto n = static_cast<ParallelIndex>(data.num_rows());
  internal::LossGradPartial total = ParallelReduce(
      ParallelIndex{0}, n, internal::LossGradPartial{},
      [&](ParallelIndex b, ParallelIndex e) {
        internal::LossGradPartial part;
        part.grad.Resize(theta.size());
        internal::ForMargins(data, theta, b, e, [&](ParallelIndex i, double m) {
          double coeff;
          part.loss += Link::LossAndCoeff(m, data.label(i), &coeff);
          data.AddRowTo(i, coeff, part.grad.data());
        });
        return part;
      },
      internal::CombineLossGrad, GradientGrain(n));
  const double inv_n = 1.0 / static_cast<double>(n);
  const double loss = total.loss * inv_n;
  *grad = std::move(total.grad);
  (*grad) *= inv_n;
  Axpy(l2_, theta, grad);
  return loss + 0.5 * l2_ * SquaredNorm2(theta);
}

// Value-only pass: LossAndCoeff, so it agrees with the fused gradient pass
// bitwise.
template <typename Link>
double GlmSpec<Link>::Objective(const Vector& theta,
                                const Dataset& data) const {
  BLINKML_CHECK_EQ(theta.size(), data.dim());
  BLINKML_CHECK_GT(data.num_rows(), 0);
  const auto n = static_cast<ParallelIndex>(data.num_rows());
  const double loss = ParallelReduce(
      ParallelIndex{0}, n, 0.0,
      [&](ParallelIndex b, ParallelIndex e) {
        double part = 0.0;
        internal::ForMargins(data, theta, b, e, [&](ParallelIndex i, double m) {
          double unused;
          part += Link::LossAndCoeff(m, data.label(i), &unused);
        });
        return part;
      },
      [](double acc, double part) { return acc + part; }, GradientGrain(n));
  return loss / static_cast<double>(n) + 0.5 * l2_ * SquaredNorm2(theta);
}

template <typename Link>
void GlmSpec<Link>::Gradient(const Vector& theta, const Dataset& data,
                             Vector* grad) const {
  ObjectiveAndGradient(theta, data, grad);
}

template <typename Link>
void GlmSpec<Link>::PerExampleGradientCoeffs(const Vector& theta,
                                             const Dataset& data,
                                             Vector* coeffs) const {
  coeffs->Resize(data.num_rows());
  ForEachMargin(theta, data, [&](ParallelIndex i, double m) {
    (*coeffs)[i] = Link::Coeff(m, data.label(i));
  });
}

// Row i is Coeff(margin_i, y_i) * x_i, from the same margin walk as the
// coefficients, so the dense gradient matrix stays entry-for-entry
// identical to ScaleRows(PerExampleGradientCoeffs) — the structure-sharing
// contract the sparse statistics tests pin exactly.
template <typename Link>
void GlmSpec<Link>::PerExampleGradients(const Vector& theta,
                                        const Dataset& data,
                                        Matrix* out) const {
  *out = Matrix(data.num_rows(), theta.size());
  ForEachMargin(theta, data, [&](ParallelIndex i, double m) {
    data.AddRowTo(i, Link::Coeff(m, data.label(i)), out->row_data(i));
  });
}

template <typename Link>
void GlmSpec<Link>::Predict(const Vector& theta, const Dataset& data,
                            Vector* out) const {
  out->Resize(data.num_rows());
  ForEachMargin(theta, data, [&](ParallelIndex i, double m) {
    (*out)[i] = Link::Predict(m);
  });
}

template <typename Link>
void GlmSpec<Link>::PredictBatch(const std::vector<const Vector*>& thetas,
                                 const Dataset& data, Matrix* out) const {
  *out = BatchMargins(data, thetas);
  ParallelFor(0, data.num_rows(), [&](ParallelIndex b, ParallelIndex e) {
    for (ParallelIndex i = b; i < e; ++i) {
      double* row = out->row_data(i);
      for (Matrix::Index c = 0; c < out->cols(); ++c) {
        row[c] = Link::Predict(row[c]);
      }
    }
  });
}

template <typename Link>
Matrix GlmSpec<Link>::Scores(const Vector& theta, const Dataset& data) const {
  Matrix scores(data.num_rows(), 1);
  ForEachMargin(theta, data,
                [&](ParallelIndex i, double m) { scores(i, 0) = m; });
  return scores;
}

template <typename Link>
Matrix GlmSpec<Link>::ScoresBatch(const std::vector<const Vector*>& thetas,
                                  const Dataset& data) const {
  // Scores ARE the margins: one pass over the rows serves every draw in
  // the group, each column bitwise equal to a single Scores pass.
  return BatchMargins(data, thetas);
}

template <typename Link>
double GlmSpec<Link>::DiffFromScores(const Matrix& scores1,
                                     const Matrix& scores2,
                                     const Dataset& holdout) const {
  BLINKML_CHECK_EQ(scores1.rows(), holdout.num_rows());
  BLINKML_CHECK_EQ(scores2.rows(), holdout.num_rows());
  const Dataset::Index n = holdout.num_rows();
  BLINKML_CHECK_GT(n, 0);
  double se = 0.0;
  for (Dataset::Index i = 0; i < n; ++i) {
    const double d =
        Link::Predict(scores1(i, 0)) - Link::Predict(scores2(i, 0));
    se += d * d;
  }
  // Binary predictions are 0/1 labels, so se is the exact count of rows
  // whose labels differ.
  if (task() == Task::kBinary) return se / static_cast<double>(n);
  const double rms = std::sqrt(se / static_cast<double>(n));
  return rms / LabelScale(holdout);
}

template <typename Link>
double GlmSpec<Link>::Diff(const Vector& theta1, const Vector& theta2,
                           const Dataset& holdout) const {
  return DiffFromScores(Scores(theta1, holdout), Scores(theta2, holdout),
                        holdout);
}

template <typename Link>
Result<Matrix> GlmSpec<Link>::ClosedFormHessian(const Vector& theta,
                                                const Dataset& data) const {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("empty dataset");
  }
  BLINKML_CHECK_EQ(theta.size(), data.dim());
  const Dataset::Index n = data.num_rows();
  const Dataset::Index d = data.dim();
  Matrix h(d, d);
  for (Dataset::Index i = 0; i < n; ++i) {
    const double w = Link::HessianWeight(data.RowDot(i, theta.data()));
    if (data.is_sparse()) {
      const SparseMatrix& x = data.sparse();
      const auto nnz = x.RowNnz(i);
      const auto* cols = x.RowCols(i);
      const auto* vals = x.RowValues(i);
      for (Dataset::Index a = 0; a < nnz; ++a) {
        for (Dataset::Index b = 0; b < nnz; ++b) {
          h(cols[a], cols[b]) += w * vals[a] * vals[b];
        }
      }
    } else {
      const double* row = data.dense().row_data(i);
      for (Dataset::Index a = 0; a < d; ++a) {
        const double wa = w * row[a];
        if (wa == 0.0) continue;
        double* hrow = h.row_data(a);
        for (Dataset::Index b = 0; b < d; ++b) hrow[b] += wa * row[b];
      }
    }
  }
  h *= 1.0 / static_cast<double>(n);
  h.AddToDiagonal(l2_);
  return h;
}

}  // namespace blinkml

#endif  // BLINKML_MODELS_GLM_SPEC_H_
