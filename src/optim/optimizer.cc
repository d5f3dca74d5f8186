#include "optim/optimizer.h"

#include <cmath>
#include <deque>

#include "linalg/matrix.h"
#include "optim/line_search.h"
#include "util/check.h"

namespace blinkml {

namespace {

// Shared convergence bookkeeping.
bool Converged(double grad_norm, double value, double prev_value,
               const OptimizerOptions& opts) {
  if (grad_norm <= opts.gradient_tolerance) return true;
  const double dv = std::fabs(value - prev_value);
  return dv <= opts.value_tolerance * std::max(1.0, std::fabs(value));
}

Status ValidateStart(const DifferentiableObjective& f, const Vector& theta0) {
  if (theta0.size() != f.dim()) {
    return Status::InvalidArgument("theta0 dimension mismatch");
  }
  for (Vector::Index i = 0; i < theta0.size(); ++i) {
    if (!std::isfinite(theta0[i])) {
      return Status::InvalidArgument("theta0 has non-finite entries");
    }
  }
  return Status::OK();
}

class Bfgs final : public Optimizer {
 public:
  explicit Bfgs(OptimizerOptions opts) : opts_(opts) {}

  Result<OptimizeResult> Minimize(const DifferentiableObjective& f,
                                  const Vector& theta0) const override {
    BLINKML_RETURN_NOT_OK(ValidateStart(f, theta0));
    using Index = Matrix::Index;
    const Index d = f.dim();
    OptimizeResult out;
    out.theta = theta0;
    Vector grad(d);
    out.value = f.ValueAndGradient(out.theta, &grad);
    ++out.evaluations;
    Matrix h_inv = Matrix::Identity(d);  // inverse-Hessian approximation
    double prev_value = std::numeric_limits<double>::infinity();
    for (int it = 0; it < opts_.max_iterations; ++it) {
      out.gradient_norm = NormInf(grad);
      if (Converged(out.gradient_norm, out.value, prev_value, opts_)) {
        out.converged = true;
        return out;
      }
      Vector direction = MatVec(h_inv, grad);
      direction *= -1.0;
      if (Dot(direction, grad) >= 0.0) {
        // Approximation lost positive definiteness (numerics); reset.
        h_inv = Matrix::Identity(d);
        direction = grad;
        direction *= -1.0;
      }
      const LineSearchResult step =
          StrongWolfeSearch(f, out.theta, out.value, grad, direction);
      out.evaluations += step.evaluations;
      if (!step.success) return out;
      // s = alpha * direction, y = grad_new - grad.
      Vector s = direction;
      s *= step.alpha;
      Vector y = step.gradient;
      y -= grad;
      const double sy = Dot(s, y);
      Axpy(1.0, s, &out.theta);
      prev_value = out.value;
      out.value = step.value;
      grad = step.gradient;
      ++out.iterations;
      if (sy > 1e-12 * Norm2(s) * Norm2(y)) {
        // BFGS inverse update:
        // H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T.
        const double rho = 1.0 / sy;
        const Vector hy = MatVec(h_inv, y);
        const double yhy = Dot(y, hy);
        const double c = rho * rho * yhy + rho;
        for (Index r = 0; r < d; ++r) {
          double* row = h_inv.row_data(r);
          const double sr = s[r];
          const double hyr = hy[r];
          for (Index col = 0; col < d; ++col) {
            row[col] += c * sr * s[col] - rho * (sr * hy[col] + hyr * s[col]);
          }
        }
      }
    }
    out.gradient_norm = NormInf(grad);
    out.converged = out.gradient_norm <= opts_.gradient_tolerance;
    return out;
  }

 private:
  OptimizerOptions opts_;
};

class Lbfgs final : public Optimizer {
 public:
  explicit Lbfgs(OptimizerOptions opts) : opts_(opts) {}

  Result<OptimizeResult> Minimize(const DifferentiableObjective& f,
                                  const Vector& theta0) const override {
    BLINKML_RETURN_NOT_OK(ValidateStart(f, theta0));
    OptimizeResult out;
    out.theta = theta0;
    Vector grad(f.dim());
    out.value = f.ValueAndGradient(out.theta, &grad);
    ++out.evaluations;
    std::deque<Vector> s_hist;
    std::deque<Vector> y_hist;
    std::deque<double> rho_hist;
    double gamma = 1.0;  // initial Hessian scaling
    double prev_value = std::numeric_limits<double>::infinity();
    for (int it = 0; it < opts_.max_iterations; ++it) {
      out.gradient_norm = NormInf(grad);
      if (Converged(out.gradient_norm, out.value, prev_value, opts_)) {
        out.converged = true;
        return out;
      }
      // Two-loop recursion.
      Vector q = grad;
      const int m = static_cast<int>(s_hist.size());
      std::vector<double> alpha(static_cast<std::size_t>(m));
      for (int i = m - 1; i >= 0; --i) {
        alpha[static_cast<std::size_t>(i)] =
            rho_hist[static_cast<std::size_t>(i)] *
            Dot(s_hist[static_cast<std::size_t>(i)], q);
        Axpy(-alpha[static_cast<std::size_t>(i)],
             y_hist[static_cast<std::size_t>(i)], &q);
      }
      q *= gamma;
      for (int i = 0; i < m; ++i) {
        const double beta = rho_hist[static_cast<std::size_t>(i)] *
                            Dot(y_hist[static_cast<std::size_t>(i)], q);
        Axpy(alpha[static_cast<std::size_t>(i)] - beta,
             s_hist[static_cast<std::size_t>(i)], &q);
      }
      Vector direction = q;
      direction *= -1.0;
      if (Dot(direction, grad) >= 0.0) {
        s_hist.clear();
        y_hist.clear();
        rho_hist.clear();
        direction = grad;
        direction *= -1.0;
      }
      const LineSearchResult step =
          StrongWolfeSearch(f, out.theta, out.value, grad, direction);
      out.evaluations += step.evaluations;
      if (!step.success) return out;
      Vector s = direction;
      s *= step.alpha;
      Vector y = step.gradient;
      y -= grad;
      const double sy = Dot(s, y);
      Axpy(1.0, s, &out.theta);
      prev_value = out.value;
      out.value = step.value;
      grad = step.gradient;
      ++out.iterations;
      if (sy > 1e-12 * Norm2(s) * Norm2(y)) {
        gamma = sy / Dot(y, y);
        s_hist.push_back(std::move(s));
        y_hist.push_back(std::move(y));
        rho_hist.push_back(1.0 / sy);
        if (static_cast<int>(s_hist.size()) > opts_.lbfgs_memory) {
          s_hist.pop_front();
          y_hist.pop_front();
          rho_hist.pop_front();
        }
      }
    }
    out.gradient_norm = NormInf(grad);
    out.converged = out.gradient_norm <= opts_.gradient_tolerance;
    return out;
  }

 private:
  OptimizerOptions opts_;
};

}  // namespace

const char* OptimizerKindName(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::kBfgs:
      return "BFGS";
    case OptimizerKind::kLbfgs:
      return "L-BFGS";
  }
  return "Unknown";
}

std::unique_ptr<Optimizer> MakeOptimizer(OptimizerKind kind,
                                         const OptimizerOptions& options) {
  switch (kind) {
    case OptimizerKind::kBfgs:
      return std::make_unique<Bfgs>(options);
    case OptimizerKind::kLbfgs:
      return std::make_unique<Lbfgs>(options);
  }
  BLINKML_CHECK_MSG(false, "unknown optimizer kind");
  return nullptr;
}

OptimizerKind ChooseOptimizer(Vector::Index param_dim,
                              Vector::Index bfgs_dim_limit) {
  return param_dim < bfgs_dim_limit ? OptimizerKind::kBfgs
                                    : OptimizerKind::kLbfgs;
}

}  // namespace blinkml
