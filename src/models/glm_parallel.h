// Shared plumbing for the parallel GLM training loops.
//
// Every single-output GLM's hot passes have the same shape: a margin
// <x_i, theta> per row, a link applied to it (identity / sigmoid / exp),
// and either a (loss, gradient) reduction or a per-row coefficient. The
// drivers here own that shape once: the specs supply a Link with the
// per-row arithmetic and get the parallel loop and the determinism
// contract for free.
//
// Margins for a panel of rows come from the unrolled dot kernels
// (linalg/kernels.h) and the link's fused LossAndCoeff shares one exp
// between the loss and the coefficient: one streaming pass over the data
// with several independent FLOP chains. The loss/gradient passes reduce
// per-chunk (loss, grad) partials over the runtime's fixed chunk -> slot
// mapping, so they are bitwise independent of the thread count (see
// runtime/parallel.h).

#ifndef BLINKML_MODELS_GLM_PARALLEL_H_
#define BLINKML_MODELS_GLM_PARALLEL_H_

#include <algorithm>
#include <utility>

#include "data/dataset.h"
#include "linalg/kernels.h"
#include "linalg/vector.h"
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
/// unrolled dots (the same dots BatchMargins uses, which is what keeps the
/// batched-scoring self-check bitwise).
inline void PanelMargins(const Dataset& data, const Vector& theta,
                         ParallelIndex b, ParallelIndex e, double* out) {
  if (data.is_sparse()) {
    kernels::SparseMargins(data.sparse(), theta.data(), b, e, out);
  } else {
    kernels::DenseMargins(data.dense(), theta.data(), b, e, out);
  }
}

/// The one margin walk every pass below shares: calls row_fn(i,
/// margin_i) for i in [b, e), with the margins of each panel computed by
/// the unrolled dots into a stack buffer. Keeping the walk here — not
/// copy-pasted per pass — is what keeps the passes' margin arithmetic
/// identical by construction.
template <typename RowFn>
inline void ForMargins(const Dataset& data, const Vector& theta,
                       ParallelIndex b, ParallelIndex e, const RowFn& row_fn) {
  double margins[kGlmPanel];
  for (ParallelIndex p = b; p < e; p += kGlmPanel) {
    const ParallelIndex pe = std::min(p + kGlmPanel, e);
    PanelMargins(data, theta, p, pe, margins);
    for (ParallelIndex i = p; i < pe; ++i) row_fn(i, margins[i - p]);
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

/// The trainer's gradient loop: averaged loss + gradient of the negative
/// log-likelihood plus the L2 term, fused in one data pass.
///
/// Link contract: `Coeff(margin, y)` is the per-row gradient coefficient;
/// `LossAndCoeff(margin, y, &coeff)` returns the per-row loss and may
/// share intermediate transcendentals with the coefficient (its coeff
/// then differs from Coeff's by rounding only).
template <typename Link>
double GlmObjectiveAndGradient(const Link& link, const Dataset& data,
                               const Vector& theta, double l2, Vector* grad) {
  BLINKML_CHECK_EQ(theta.size(), data.dim());
  BLINKML_CHECK_GT(data.num_rows(), 0);
  const auto n = static_cast<ParallelIndex>(data.num_rows());
  LossGradPartial total = ParallelReduce(
      ParallelIndex{0}, n, LossGradPartial{},
      [&](ParallelIndex b, ParallelIndex e) {
        LossGradPartial part;
        part.grad.Resize(theta.size());
        ForMargins(data, theta, b, e, [&](ParallelIndex i, double m) {
          double coeff;
          part.loss += link.LossAndCoeff(m, data.label(i), &coeff);
          data.AddRowTo(i, coeff, part.grad.data());
        });
        return part;
      },
      CombineLossGrad, GradientGrain(n));
  const double inv_n = 1.0 / static_cast<double>(n);
  const double loss = total.loss * inv_n;
  *grad = std::move(total.grad);
  (*grad) *= inv_n;
  Axpy(l2, theta, grad);
  return loss + 0.5 * l2 * SquaredNorm2(theta);
}

/// Value-only pass (for specs whose loss is cheaper without the gradient
/// scatter).
template <typename Link>
double GlmObjective(const Link& link, const Dataset& data, const Vector& theta,
                    double l2) {
  BLINKML_CHECK_EQ(theta.size(), data.dim());
  BLINKML_CHECK_GT(data.num_rows(), 0);
  const auto n = static_cast<ParallelIndex>(data.num_rows());
  const double loss = ParallelReduce(
      ParallelIndex{0}, n, 0.0,
      [&](ParallelIndex b, ParallelIndex e) {
        double part = 0.0;
        // LossAndCoeff: the value-only pass must agree with the fused
        // gradient pass bitwise.
        ForMargins(data, theta, b, e, [&](ParallelIndex i, double m) {
          double unused;
          part += link.LossAndCoeff(m, data.label(i), &unused);
        });
        return part;
      },
      [](double acc, double part) { return acc + part; }, GradientGrain(n));
  return loss / static_cast<double>(n) + 0.5 * l2 * SquaredNorm2(theta);
}

/// PerExampleGradientCoeffs: the c of q_i = c_i x_i, one margin + link per
/// row. Row-parallel with the default grain, as the specs' loops were.
template <typename Link>
void GlmCoeffs(const Link& link, const Dataset& data, const Vector& theta,
               Vector* coeffs) {
  BLINKML_CHECK_EQ(theta.size(), data.dim());
  coeffs->Resize(data.num_rows());
  ParallelFor(0, data.num_rows(), [&](ParallelIndex b, ParallelIndex e) {
    ForMargins(data, theta, b, e, [&](ParallelIndex i, double m) {
      (*coeffs)[i] = link.Coeff(m, data.label(i));
    });
  });
}

/// PerExampleGradients: row i of *out is Coeff(margin_i, y_i) * x_i. Uses
/// the same margin path as GlmCoeffs, so the dense gradient matrix stays
/// entry-for-entry identical to ScaleRows(PerExampleGradientCoeffs) — the
/// structure-sharing contract the sparse statistics tests pin exactly.
template <typename Link>
void GlmPerExampleGradients(const Link& link, const Dataset& data,
                            const Vector& theta, Matrix* out) {
  BLINKML_CHECK_EQ(theta.size(), data.dim());
  const auto n = static_cast<ParallelIndex>(data.num_rows());
  *out = Matrix(n, theta.size());
  ParallelFor(0, n, [&](ParallelIndex b, ParallelIndex e) {
    ForMargins(data, theta, b, e, [&](ParallelIndex i, double m) {
      data.AddRowTo(i, link.Coeff(m, data.label(i)), out->row_data(i));
    });
  });
}

/// Predict: margin + link.Predict per row. The margins come from the same
/// unrolled dots as BatchMargins, so a PredictBatch column stays bitwise
/// equal to a single Predict pass — the invariant the hyperparameter
/// search's batched-scoring self-check relies on.
template <typename Link>
void GlmPredict(const Link& link, const Dataset& data, const Vector& theta,
                Vector* out) {
  BLINKML_CHECK_EQ(theta.size(), data.dim());
  out->Resize(data.num_rows());
  ParallelFor(0, data.num_rows(), [&](ParallelIndex b, ParallelIndex e) {
    ForMargins(data, theta, b, e, [&](ParallelIndex i, double m) {
      (*out)[i] = link.Predict(m);
    });
  });
}

}  // namespace internal
}  // namespace blinkml

#endif  // BLINKML_MODELS_GLM_PARALLEL_H_
