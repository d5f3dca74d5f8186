#include "core/param_sampler.h"

#include "linalg/kernels.h"

namespace blinkml {

namespace {
constexpr Matrix::Index kDenseDiagnosticsLimit = 8192;
}  // namespace

ParamSampler ParamSampler::FromDenseFactor(Matrix w) {
  ParamSampler s;
  s.backend_ = Backend::kDense;
  s.w_ = std::move(w);
  return s;
}

ParamSampler ParamSampler::FromGramFactor(Matrix q, Matrix v_scaled) {
  BLINKML_CHECK_EQ(q.rows(), v_scaled.rows());
  ParamSampler s;
  s.backend_ = Backend::kGram;
  s.q_dense_ = std::move(q);
  s.v_scaled_ = std::move(v_scaled);
  return s;
}

ParamSampler ParamSampler::FromSparseGramFactor(SparseMatrix q,
                                                Matrix v_scaled) {
  BLINKML_CHECK_EQ(q.rows(), v_scaled.rows());
  ParamSampler s;
  s.backend_ = Backend::kSparseGram;
  s.q_sparse_ = std::move(q);
  s.v_scaled_ = std::move(v_scaled);
  return s;
}

Matrix::Index ParamSampler::dim() const {
  switch (backend_) {
    case Backend::kDense:
      return w_.rows();
    case Backend::kGram:
      return q_dense_.cols();
    case Backend::kSparseGram:
      return static_cast<Matrix::Index>(q_sparse_.cols());
  }
  return 0;
}

Matrix::Index ParamSampler::rank() const {
  switch (backend_) {
    case Backend::kDense:
      return w_.cols();
    case Backend::kGram:
    case Backend::kSparseGram:
      return v_scaled_.cols();
  }
  return 0;
}

Vector ParamSampler::Draw(double scale, Rng* rng) const {
  Vector z(rank());
  rng->FillNormal(&z);
  return DrawWithZ(scale, z);
}

// The matvecs below (MatVec / MatTVec / CSR applies) run the parallel
// unrolled kernels (linalg/kernels.h).
Vector ParamSampler::DrawWithZ(double scale, const Vector& z) const {
  BLINKML_CHECK_EQ(z.size(), rank());
  Vector out;
  switch (backend_) {
    case Backend::kDense:
      out = MatVec(w_, z);
      break;
    case Backend::kGram: {
      const Vector t = MatVec(v_scaled_, z);  // n_s
      out = MatTVec(q_dense_, t);             // p
      break;
    }
    case Backend::kSparseGram: {
      const Vector t = MatVec(v_scaled_, z);
      out = q_sparse_.ApplyTransposed(t);
      break;
    }
  }
  if (scale != 1.0) out *= scale;
  return out;
}

std::vector<Vector> ParamSampler::DrawBatch(double scale,
                                            const Matrix& zs) const {
  BLINKML_CHECK_EQ(zs.cols(), rank());
  const Matrix::Index batch = zs.rows();
  std::vector<Vector> out;
  out.reserve(static_cast<std::size_t>(batch));
  if (batch == 0) return out;
  // One pass over the factor serves the whole batch. Each multi-z kernel's
  // column b is bitwise its single-vector counterpart on z_b (kernels.h),
  // so extracting column b and scaling per element reproduces
  // DrawWithZ(scale, z_b) exactly.
  Matrix stacked;  // p x batch
  switch (backend_) {
    case Backend::kDense:
      stacked = kernels::MatVecMulti(w_, zs);
      break;
    case Backend::kGram: {
      const Matrix t = kernels::MatVecMulti(v_scaled_, zs);  // n_s x batch
      stacked = kernels::MatTVecMulti(q_dense_, t);          // p x batch
      break;
    }
    case Backend::kSparseGram: {
      const Matrix t = kernels::MatVecMulti(v_scaled_, zs);
      stacked = kernels::ApplyTransposedMultiBlocked(q_sparse_, t);
      break;
    }
  }
  const Matrix::Index p = stacked.rows();
  for (Matrix::Index b = 0; b < batch; ++b) {
    Vector v(p);
    for (Matrix::Index i = 0; i < p; ++i) v[i] = stacked(i, b);
    if (scale != 1.0) v *= scale;
    out.push_back(std::move(v));
  }
  return out;
}

Result<Matrix> ParamSampler::DenseCovariance() const {
  const Matrix::Index p = dim();
  if (backend_ != Backend::kDense && p > kDenseDiagnosticsLimit) {
    return Status::InvalidArgument(
        "DenseCovariance is limited to small parameter dimensions");
  }
  switch (backend_) {
    case Backend::kDense:
      return MatMulT(w_, w_);
    case Backend::kGram: {
      const Matrix w = MatTMul(q_dense_, v_scaled_);  // p x r
      return MatMulT(w, w);
    }
    case Backend::kSparseGram: {
      // W = Q^T V, every column in one parallel pass (each an independent
      // serial scatter).
      const Matrix w = kernels::ApplyTransposedMulti(q_sparse_, v_scaled_);
      return MatMulT(w, w);
    }
  }
  return Status::Internal("unreachable");
}

Result<Vector> ParamSampler::VarianceDiagonal() const {
  if (backend_ == Backend::kDense) {
    Vector diag(w_.rows());
    for (Matrix::Index i = 0; i < w_.rows(); ++i) {
      const double* row = w_.row_data(i);
      double s = 0.0;
      for (Matrix::Index j = 0; j < w_.cols(); ++j) s += row[j] * row[j];
      diag[i] = s;
    }
    return diag;
  }
  BLINKML_ASSIGN_OR_RETURN(Matrix cov, DenseCovariance());
  Vector diag(cov.rows());
  for (Matrix::Index i = 0; i < cov.rows(); ++i) diag[i] = cov(i, i);
  return diag;
}

}  // namespace blinkml
