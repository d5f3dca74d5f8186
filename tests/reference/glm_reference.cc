// Reference GLM passes and sampler: one row at a time, plain containers.

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "models/logistic_regression.h"
#include "runtime/parallel.h"
#include "tests/reference/reference.h"

namespace blinkml {
namespace reference {

namespace {

using Index = Dataset::Index;

double LinearLossAndCoeff(double m, double y, double* coeff) {
  const double r = m - y;
  *coeff = r;
  return 0.5 * r * r;
}
double LinearCoeff(double m, double y) { return m - y; }
double LinearPredict(double m) { return m; }

double LogisticLossAndCoeff(double m, double y, double* coeff) {
  if (m >= 0.0) {
    const double e = std::exp(-m);
    *coeff = 1.0 / (1.0 + e) - y;
    return m + std::log1p(e) - y * m;
  }
  const double e = std::exp(m);
  *coeff = e / (1.0 + e) - y;
  return std::log1p(e) - y * m;
}
double LogisticCoeff(double m, double y) {
  return LogisticRegressionSpec::Sigmoid(m) - y;
}
double LogisticPredict(double m) { return m >= 0.0 ? 1.0 : 0.0; }

double SafeExp(double z) { return std::exp(std::min(z, 500.0)); }
double PoissonLossAndCoeff(double m, double y, double* coeff) {
  const double rate = SafeExp(m);
  *coeff = rate - y;
  return rate - y * m;
}
double PoissonCoeff(double m, double y) { return SafeExp(m) - y; }

// y += alpha * x_i, entry by entry.
void AddRow(const Dataset& data, Index i, double alpha, double* y) {
  if (data.is_sparse()) {
    const SparseMatrix& x = data.sparse();
    const Index* cols = x.RowCols(i);
    const double* vals = x.RowValues(i);
    for (Index k = 0; k < x.RowNnz(i); ++k) y[cols[k]] += alpha * vals[k];
    return;
  }
  const double* row = data.dense().row_data(i);
  for (Index c = 0; c < data.dim(); ++c) y[c] += alpha * row[c];
}

// The per-chunk (loss, gradient) sums of GlmSpec's reductions, over the
// chunk layout GradientGrain gives, merged in chunk order.
double ChunkedLossAndGradient(const GlmLink& link, const Vector& theta,
                              const Dataset& data, Vector* grad) {
  const auto n = static_cast<ParallelIndex>(data.num_rows());
  const ChunkLayout layout = ComputeChunks(n, GradientGrain(n));
  double total_loss = 0.0;
  for (ParallelIndex c = 0; c < layout.num_chunks; ++c) {
    const ParallelIndex b = c * layout.chunk_size;
    const ParallelIndex e = std::min(b + layout.chunk_size, n);
    double loss = 0.0;
    Vector part(theta.size());
    for (ParallelIndex i = b; i < e; ++i) {
      double coeff;
      loss += link.loss_and_coeff(CanonicalMargin(data, i, theta),
                                  data.label(i), &coeff);
      if (grad != nullptr) AddRow(data, i, coeff, part.data());
    }
    if (c == 0) {
      total_loss = loss;
      if (grad != nullptr) *grad = std::move(part);
      continue;
    }
    total_loss += loss;
    if (grad != nullptr) *grad += part;
  }
  return total_loss;
}

}  // namespace

GlmLink LinearLink() {
  return {&LinearLossAndCoeff, &LinearCoeff, &LinearPredict};
}
GlmLink LogisticLink() {
  return {&LogisticLossAndCoeff, &LogisticCoeff, &LogisticPredict};
}
GlmLink PoissonLink() {
  return {&PoissonLossAndCoeff, &PoissonCoeff, &SafeExp};
}

double CanonicalMargin(const Dataset& data, Index i, const Vector& theta) {
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  double tail = 0.0;
  Index n = 0, k = 0;
  if (data.is_sparse()) {
    const SparseMatrix& x = data.sparse();
    const Index* cols = x.RowCols(i);
    const double* vals = x.RowValues(i);
    n = x.RowNnz(i);
    for (; k + 4 <= n; k += 4) {
      for (int c = 0; c < 4; ++c) s[c] += vals[k + c] * theta[cols[k + c]];
    }
    tail = (s[0] + s[1]) + (s[2] + s[3]);
    for (; k < n; ++k) tail += vals[k] * theta[cols[k]];
    return tail;
  }
  const double* row = data.dense().row_data(i);
  n = data.dim();
  for (; k + 4 <= n; k += 4) {
    for (int c = 0; c < 4; ++c) s[c] += row[k + c] * theta[k + c];
  }
  tail = (s[0] + s[1]) + (s[2] + s[3]);
  for (; k < n; ++k) tail += row[k] * theta[k];
  return tail;
}

double GlmObjectiveAndGradient(const GlmLink& link, const Vector& theta,
                               const Dataset& data, double l2, Vector* grad) {
  const double loss = ChunkedLossAndGradient(link, theta, data, grad);
  const double inv_n = 1.0 / static_cast<double>(data.num_rows());
  (*grad) *= inv_n;
  Axpy(l2, theta, grad);
  return loss * inv_n + 0.5 * l2 * SquaredNorm2(theta);
}

double GlmObjective(const GlmLink& link, const Vector& theta,
                    const Dataset& data, double l2) {
  const double loss = ChunkedLossAndGradient(link, theta, data, nullptr);
  return loss / static_cast<double>(data.num_rows()) +
         0.5 * l2 * SquaredNorm2(theta);
}

Vector GlmGradientCoeffs(const GlmLink& link, const Vector& theta,
                         const Dataset& data) {
  Vector coeffs(data.num_rows());
  for (Index i = 0; i < data.num_rows(); ++i) {
    coeffs[i] = link.coeff(CanonicalMargin(data, i, theta), data.label(i));
  }
  return coeffs;
}

Matrix GlmPerExampleGradients(const GlmLink& link, const Vector& theta,
                              const Dataset& data) {
  Matrix q(data.num_rows(), theta.size());
  for (Index i = 0; i < data.num_rows(); ++i) {
    AddRow(data, i,
           link.coeff(CanonicalMargin(data, i, theta), data.label(i)),
           q.row_data(i));
  }
  return q;
}

Vector GlmPredict(const GlmLink& link, const Vector& theta,
                  const Dataset& data) {
  Vector out(data.num_rows());
  for (Index i = 0; i < data.num_rows(); ++i) {
    out[i] = link.predict(CanonicalMargin(data, i, theta));
  }
  return out;
}

std::vector<std::int64_t> SampleWithoutReplacement(std::int64_t n,
                                                   std::int64_t k, Rng* rng) {
  BLINKML_CHECK(n >= 0 && k >= 0 && k <= n);
  if (k == 0) return {};
  // Dense regime: partial Fisher-Yates over the full range.
  if (k * 3 >= n) {
    std::vector<std::int64_t> pool(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) pool[static_cast<std::size_t>(i)] = i;
    for (std::int64_t i = 0; i < k; ++i) {
      const std::int64_t j =
          i + static_cast<std::int64_t>(
                  rng->UniformInt(static_cast<std::uint64_t>(n - i)));
      std::swap(pool[static_cast<std::size_t>(i)],
                pool[static_cast<std::size_t>(j)]);
    }
    pool.resize(static_cast<std::size_t>(k));
    return pool;
  }
  // Sparse regime: Floyd's algorithm over a hash set.
  std::unordered_set<std::int64_t> chosen;
  std::vector<std::int64_t> out;
  for (std::int64_t j = n - k; j < n; ++j) {
    const std::int64_t t = static_cast<std::int64_t>(
        rng->UniformInt(static_cast<std::uint64_t>(j + 1)));
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  // Floyd's output has a position bias; shuffle for a uniformly random order.
  for (std::int64_t i = k - 1; i > 0; --i) {
    const std::int64_t j = static_cast<std::int64_t>(
        rng->UniformInt(static_cast<std::uint64_t>(i + 1)));
    std::swap(out[static_cast<std::size_t>(i)],
              out[static_cast<std::size_t>(j)]);
  }
  return out;
}

}  // namespace reference
}  // namespace blinkml
