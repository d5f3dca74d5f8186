#include <cmath>

#include <gtest/gtest.h>

#include "linalg/cholesky.h"
#include "optim/line_search.h"
#include "optim/optimizer.h"
#include "tests/test_util.h"

namespace blinkml {
namespace {

using testing::ExpectVectorNear;

// f(x) = 0.5 x^T A x - b^T x with SPD A; minimum at A^-1 b.
class QuadraticObjective final : public DifferentiableObjective {
 public:
  QuadraticObjective(Matrix a, Vector b) : a_(std::move(a)), b_(std::move(b)) {}

  Vector::Index dim() const override { return b_.size(); }

  double Value(const Vector& theta) const override {
    return 0.5 * Dot(theta, MatVec(a_, theta)) - Dot(b_, theta);
  }

  void Gradient(const Vector& theta, Vector* grad) const override {
    *grad = MatVec(a_, theta);
    *grad -= b_;
  }

 private:
  Matrix a_;
  Vector b_;
};

// The Rosenbrock function: a classic ill-conditioned nonconvex test.
class RosenbrockObjective final : public DifferentiableObjective {
 public:
  Vector::Index dim() const override { return 2; }

  double Value(const Vector& t) const override {
    const double a = 1.0 - t[0];
    const double b = t[1] - t[0] * t[0];
    return a * a + 100.0 * b * b;
  }

  void Gradient(const Vector& t, Vector* grad) const override {
    grad->Resize(2);
    const double b = t[1] - t[0] * t[0];
    (*grad)[0] = -2.0 * (1.0 - t[0]) - 400.0 * t[0] * b;
    (*grad)[1] = 200.0 * b;
  }
};

QuadraticObjective MakeQuadratic(int n, std::uint64_t seed) {
  Rng rng(seed);
  return QuadraticObjective(testing::RandomSpd(n, &rng),
                            testing::RandomVector(n, &rng));
}

// ---------- Line searches ----------

TEST(LineSearch, StrongWolfeSatisfiesBothConditions) {
  const QuadraticObjective f = MakeQuadratic(6, 2);
  Rng rng(3);
  const Vector theta = testing::RandomVector(6, &rng);
  Vector grad;
  const double value = f.ValueAndGradient(theta, &grad);
  Vector direction = grad;
  direction *= -1.0;
  const LineSearchResult r =
      StrongWolfeSearch(f, theta, value, grad, direction);
  ASSERT_TRUE(r.success);
  const double slope0 = Dot(grad, direction);
  EXPECT_LE(r.value, value + kArmijoC1 * r.alpha * slope0 + 1e-12);
  EXPECT_LE(std::fabs(Dot(r.gradient, direction)),
            -kWolfeC2 * slope0 + 1e-12);
}

TEST(LineSearch, RejectsAscentDirection) {
  const QuadraticObjective f = MakeQuadratic(3, 4);
  Rng rng(5);
  const Vector theta = testing::RandomVector(3, &rng);
  Vector grad;
  const double value = f.ValueAndGradient(theta, &grad);
  // grad itself is an ascent direction.
  EXPECT_THROW(StrongWolfeSearch(f, theta, value, grad, grad), CheckError);
}

// ---------- Optimizers ----------

class OptimizerKinds : public ::testing::TestWithParam<OptimizerKind> {};

TEST_P(OptimizerKinds, SolvesQuadraticToTolerance) {
  const int n = 8;
  Rng rng(10);
  const Matrix a = testing::RandomSpd(n, &rng);
  const Vector b = testing::RandomVector(n, &rng);
  const QuadraticObjective f(a, b);
  OptimizerOptions options;
  options.max_iterations = 500;
  const auto optimizer = MakeOptimizer(GetParam(), options);
  const auto result = optimizer->Minimize(f, Vector(n));
  ASSERT_TRUE(result.ok()) << OptimizerKindName(GetParam());
  EXPECT_TRUE(result->converged);
  // Oracle solution via Cholesky.
  const auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  ExpectVectorNear(result->theta, chol->Solve(b), 1e-4,
                   OptimizerKindName(GetParam()));
}

TEST_P(OptimizerKinds, RejectsBadStart) {
  const QuadraticObjective f = MakeQuadratic(3, 11);
  const auto optimizer = MakeOptimizer(GetParam());
  EXPECT_FALSE(optimizer->Minimize(f, Vector(5)).ok());  // wrong dim
  Vector nan_start(3);
  nan_start[0] = std::nan("");
  EXPECT_FALSE(optimizer->Minimize(f, nan_start).ok());
}

TEST_P(OptimizerKinds, MonotoneValueDecrease) {
  // converged result value must be <= initial value.
  const QuadraticObjective f = MakeQuadratic(4, 12);
  Rng rng(13);
  const Vector start = testing::RandomVector(4, &rng);
  const double initial = f.Value(start);
  const auto result = MakeOptimizer(GetParam())->Minimize(f, start);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->value, initial);
}

INSTANTIATE_TEST_SUITE_P(Kinds, OptimizerKinds,
                         ::testing::Values(OptimizerKind::kBfgs,
                                           OptimizerKind::kLbfgs));

TEST(Bfgs, SolvesRosenbrock) {
  const RosenbrockObjective f;
  OptimizerOptions options;
  options.max_iterations = 2000;
  options.gradient_tolerance = 1e-8;
  options.value_tolerance = 0.0;  // run to gradient tolerance
  const auto result =
      MakeOptimizer(OptimizerKind::kBfgs, options)->Minimize(f, Vector{-1.2, 1.0});
  ASSERT_TRUE(result.ok());
  ExpectVectorNear(result->theta, Vector{1.0, 1.0}, 1e-4, "Rosenbrock");
}

TEST(Lbfgs, SolvesRosenbrock) {
  const RosenbrockObjective f;
  OptimizerOptions options;
  options.max_iterations = 2000;
  options.gradient_tolerance = 1e-8;
  options.value_tolerance = 0.0;
  const auto result =
      MakeOptimizer(OptimizerKind::kLbfgs, options)->Minimize(f, Vector{-1.2, 1.0});
  ASSERT_TRUE(result.ok());
  ExpectVectorNear(result->theta, Vector{1.0, 1.0}, 1e-4, "Rosenbrock");
}

TEST(Lbfgs, MatchesBfgsOnConvexProblem) {
  const QuadraticObjective f = MakeQuadratic(20, 14);
  OptimizerOptions options;
  options.max_iterations = 500;
  const auto bfgs =
      MakeOptimizer(OptimizerKind::kBfgs, options)->Minimize(f, Vector(20));
  const auto lbfgs =
      MakeOptimizer(OptimizerKind::kLbfgs, options)->Minimize(f, Vector(20));
  ASSERT_TRUE(bfgs.ok());
  ASSERT_TRUE(lbfgs.ok());
  ExpectVectorNear(bfgs->theta, lbfgs->theta, 1e-4, "BFGS vs L-BFGS");
}

TEST(Optimizer, IterationBudgetReportsNotConverged) {
  const QuadraticObjective f = MakeQuadratic(30, 15);
  OptimizerOptions options;
  options.max_iterations = 1;
  options.gradient_tolerance = 1e-14;
  options.value_tolerance = 0.0;
  const auto result =
      MakeOptimizer(OptimizerKind::kLbfgs, options)->Minimize(f, Vector(30));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->converged);
  EXPECT_EQ(result->iterations, 1);
}

TEST(Optimizer, StartingAtOptimumConvergesImmediately) {
  const int n = 5;
  Rng rng(16);
  const Matrix a = testing::RandomSpd(n, &rng);
  const Vector b = testing::RandomVector(n, &rng);
  const QuadraticObjective f(a, b);
  const auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  const auto result =
      MakeOptimizer(OptimizerKind::kLbfgs)->Minimize(f, chol->Solve(b));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->iterations, 0);
}

TEST(Optimizer, ChooseOptimizerFollowsPaperPolicy) {
  EXPECT_EQ(ChooseOptimizer(28), OptimizerKind::kBfgs);
  EXPECT_EQ(ChooseOptimizer(99), OptimizerKind::kBfgs);
  EXPECT_EQ(ChooseOptimizer(100), OptimizerKind::kLbfgs);
  EXPECT_EQ(ChooseOptimizer(998922), OptimizerKind::kLbfgs);
}

TEST(Optimizer, KindNames) {
  EXPECT_STREQ(OptimizerKindName(OptimizerKind::kBfgs), "BFGS");
  EXPECT_STREQ(OptimizerKindName(OptimizerKind::kLbfgs), "L-BFGS");
}

}  // namespace
}  // namespace blinkml
