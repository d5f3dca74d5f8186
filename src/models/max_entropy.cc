#include "models/max_entropy.h"

#include <algorithm>
#include <cmath>

#include "models/glm_spec.h"

namespace blinkml {

namespace {
using Index = Dataset::Index;

Index ArgMax(const double* values, Index count) {
  Index best = 0;
  for (Index c = 1; c < count; ++c) {
    if (values[c] > values[best]) best = c;
  }
  return best;
}

}  // namespace

MaxEntropySpec::MaxEntropySpec(double l2) : l2_(l2) {
  BLINKML_CHECK_GE(l2, 0.0);
}

void MaxEntropySpec::Softmax(const double* scores, Vector::Index c,
                             double* probs) {
  double max_score = scores[0];
  for (Vector::Index i = 1; i < c; ++i) {
    max_score = std::max(max_score, scores[i]);
  }
  double total = 0.0;
  for (Vector::Index i = 0; i < c; ++i) {
    probs[i] = std::exp(scores[i] - max_score);
    total += probs[i];
  }
  const double inv = 1.0 / total;
  for (Vector::Index i = 0; i < c; ++i) probs[i] *= inv;
}

double MaxEntropySpec::Objective(const Vector& theta,
                                 const Dataset& data) const {
  Vector unused;
  return ObjectiveAndGradient(theta, data, &unused);
}

void MaxEntropySpec::Gradient(const Vector& theta, const Dataset& data,
                              Vector* grad) const {
  ObjectiveAndGradient(theta, data, grad);
}

double MaxEntropySpec::ObjectiveAndGradient(const Vector& theta,
                                            const Dataset& data,
                                            Vector* grad) const {
  const Index c = data.num_classes();
  const Index d = data.dim();
  BLINKML_CHECK_EQ(theta.size(), c * d);
  BLINKML_CHECK_GT(data.num_rows(), 0);
  const Index n = data.num_rows();
  internal::LossGradPartial total = ParallelReduce(
      ParallelIndex{0}, static_cast<ParallelIndex>(n),
      internal::LossGradPartial{},
      [&](ParallelIndex b, ParallelIndex e) {
        internal::LossGradPartial part;
        part.grad.Resize(theta.size());
        std::vector<double> scores(static_cast<std::size_t>(c));
        std::vector<double> probs(static_cast<std::size_t>(c));
        for (Index i = b; i < e; ++i) {
          for (Index k = 0; k < c; ++k) {
            scores[static_cast<std::size_t>(k)] =
                data.RowDot(i, theta.data() + k * d);
          }
          Softmax(scores.data(), c, probs.data());
          const Index y = static_cast<Index>(data.label(i));
          part.loss -=
              std::log(std::max(probs[static_cast<std::size_t>(y)], 1e-300));
          for (Index k = 0; k < c; ++k) {
            const double coeff =
                probs[static_cast<std::size_t>(k)] - (k == y ? 1.0 : 0.0);
            if (coeff != 0.0) {
              data.AddRowTo(i, coeff, part.grad.data() + k * d);
            }
          }
        }
        return part;
      },
      internal::CombineLossGrad,
      GradientGrain(static_cast<ParallelIndex>(n)));
  const double inv_n = 1.0 / static_cast<double>(n);
  const double loss = total.loss * inv_n;
  *grad = std::move(total.grad);
  (*grad) *= inv_n;
  Axpy(l2_, theta, grad);
  return loss + 0.5 * l2_ * SquaredNorm2(theta);
}

void MaxEntropySpec::PerExampleGradients(const Vector& theta,
                                         const Dataset& data,
                                         Matrix* out) const {
  const Index c = data.num_classes();
  const Index d = data.dim();
  BLINKML_CHECK_EQ(theta.size(), c * d);
  const Index n = data.num_rows();
  *out = Matrix(n, c * d);
  ParallelFor(0, n, [&](Index b, Index e) {
    std::vector<double> scores(static_cast<std::size_t>(c));
    std::vector<double> probs(static_cast<std::size_t>(c));
    for (Index i = b; i < e; ++i) {
      for (Index k = 0; k < c; ++k) {
        scores[static_cast<std::size_t>(k)] =
            data.RowDot(i, theta.data() + k * d);
      }
      Softmax(scores.data(), c, probs.data());
      const Index y = static_cast<Index>(data.label(i));
      double* row = out->row_data(i);
      for (Index k = 0; k < c; ++k) {
        const double coeff =
            probs[static_cast<std::size_t>(k)] - (k == y ? 1.0 : 0.0);
        if (coeff != 0.0) data.AddRowTo(i, coeff, row + k * d);
      }
    }
  });
}

SparseMatrix MaxEntropySpec::PerExampleGradientsSparse(
    const Vector& theta, const Dataset& data) const {
  const Index c = data.num_classes();
  const Index d = data.dim();
  BLINKML_CHECK_EQ(theta.size(), c * d);
  if (!data.is_sparse()) {
    Matrix dense;
    PerExampleGradients(theta, data, &dense);
    return SparseMatrix::FromDense(dense);
  }
  const SparseMatrix& x = data.sparse();
  const Index n = data.num_rows();
  std::vector<std::vector<SparseEntry>> rows(static_cast<std::size_t>(n));
  std::vector<double> scores(static_cast<std::size_t>(c));
  std::vector<double> probs(static_cast<std::size_t>(c));
  for (Index i = 0; i < n; ++i) {
    for (Index k = 0; k < c; ++k) {
      scores[static_cast<std::size_t>(k)] =
          data.RowDot(i, theta.data() + k * d);
    }
    Softmax(scores.data(), c, probs.data());
    const Index y = static_cast<Index>(data.label(i));
    const Index nnz = x.RowNnz(i);
    const auto* cols = x.RowCols(i);
    const auto* vals = x.RowValues(i);
    auto& row = rows[static_cast<std::size_t>(i)];
    row.reserve(static_cast<std::size_t>(nnz * c));
    for (Index k = 0; k < c; ++k) {
      const double coeff =
          probs[static_cast<std::size_t>(k)] - (k == y ? 1.0 : 0.0);
      if (coeff == 0.0) continue;
      for (Index e = 0; e < nnz; ++e) {
        row.push_back({k * d + cols[e], coeff * vals[e]});
      }
    }
  }
  return SparseMatrix(c * d, std::move(rows));
}

void MaxEntropySpec::Predict(const Vector& theta, const Dataset& data,
                             Vector* out) const {
  const Index c = data.num_classes();
  const Index d = data.dim();
  BLINKML_CHECK_EQ(theta.size(), c * d);
  out->Resize(data.num_rows());
  ParallelFor(0, data.num_rows(), [&](Index b, Index e) {
    std::vector<double> scores(static_cast<std::size_t>(c));
    for (Index i = b; i < e; ++i) {
      for (Index k = 0; k < c; ++k) {
        scores[static_cast<std::size_t>(k)] =
            data.RowDot(i, theta.data() + k * d);
      }
      (*out)[i] = static_cast<double>(ArgMax(scores.data(), c));
    }
  });
}

Matrix MaxEntropySpec::Scores(const Vector& theta, const Dataset& data) const {
  const Index c = data.num_classes();
  const Index d = data.dim();
  BLINKML_CHECK_EQ(theta.size(), c * d);
  Matrix scores(data.num_rows(), c);
  ParallelFor(0, data.num_rows(), [&](Index b, Index e) {
    for (Index i = b; i < e; ++i) {
      double* row = scores.row_data(i);
      for (Index k = 0; k < c; ++k) {
        row[k] = data.RowDot(i, theta.data() + k * d);
      }
    }
  });
  return scores;
}

double MaxEntropySpec::DiffFromScores(const Matrix& scores1,
                                      const Matrix& scores2,
                                      const Dataset& holdout) const {
  BLINKML_CHECK_EQ(scores1.rows(), holdout.num_rows());
  BLINKML_CHECK_EQ(scores2.rows(), holdout.num_rows());
  BLINKML_CHECK_EQ(scores1.cols(), scores2.cols());
  const Index n = holdout.num_rows();
  BLINKML_CHECK_GT(n, 0);
  const Index c = scores1.cols();
  Index disagree = 0;
  for (Index i = 0; i < n; ++i) {
    if (ArgMax(scores1.row_data(i), c) != ArgMax(scores2.row_data(i), c)) {
      ++disagree;
    }
  }
  return static_cast<double>(disagree) / static_cast<double>(n);
}

double MaxEntropySpec::Diff(const Vector& theta1, const Vector& theta2,
                            const Dataset& holdout) const {
  return DiffFromScores(Scores(theta1, holdout), Scores(theta2, holdout),
                        holdout);
}

Result<Matrix> MaxEntropySpec::ClosedFormHessian(const Vector& theta,
                                                 const Dataset& data) const {
  const Index c = data.num_classes();
  const Index d = data.dim();
  if (data.num_rows() == 0) return Status::InvalidArgument("empty dataset");
  BLINKML_CHECK_EQ(theta.size(), c * d);
  if (c * d > 8192) {
    return Status::InvalidArgument(
        "ME closed-form Hessian is O((Cd)^2) memory; too large");
  }
  const Index n = data.num_rows();
  Matrix h(c * d, c * d);
  std::vector<double> scores(static_cast<std::size_t>(c));
  std::vector<double> probs(static_cast<std::size_t>(c));
  Vector x(d);
  for (Index i = 0; i < n; ++i) {
    for (Index k = 0; k < c; ++k) {
      scores[static_cast<std::size_t>(k)] =
          data.RowDot(i, theta.data() + k * d);
    }
    Softmax(scores.data(), c, probs.data());
    x.Fill(0.0);
    data.AddRowTo(i, 1.0, x.data());
    // Block (a, b) += (p_a [a==b] - p_a p_b) * x x^T.
    for (Index a = 0; a < c; ++a) {
      const double pa = probs[static_cast<std::size_t>(a)];
      for (Index b = 0; b < c; ++b) {
        const double w =
            pa * ((a == b ? 1.0 : 0.0) - probs[static_cast<std::size_t>(b)]);
        if (w == 0.0) continue;
        for (Index r = 0; r < d; ++r) {
          const double xr = w * x[r];
          if (xr == 0.0) continue;
          double* row = h.row_data(a * d + r) + b * d;
          for (Index s = 0; s < d; ++s) row[s] += xr * x[s];
        }
      }
    }
  }
  h *= 1.0 / static_cast<double>(n);
  h.AddToDiagonal(l2_);
  return h;
}

}  // namespace blinkml
