#include <cmath>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "models/ppca.h"
#include "models/trainer.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "tests/test_util.h"

namespace blinkml {
namespace {

TEST(Ppca, ParamDimIncludesSigma) {
  PpcaSpec spec(3);
  const Dataset data = MakeSyntheticLowRank(50, 8, 3, 1);
  EXPECT_EQ(spec.ParamDim(data), 8 * 3 + 1);
  EXPECT_EQ(spec.num_factors(), 3);
  EXPECT_DOUBLE_EQ(spec.l2(), 0.0);
}

TEST(Ppca, RejectsZeroFactors) { EXPECT_THROW(PpcaSpec(0), CheckError); }

TEST(Ppca, ClosedFormSatisfiesStationarity) {
  // The closed-form MLE must be a stationary point of the objective.
  const Dataset data = MakeSyntheticLowRank(800, 10, 3, 2, /*noise=*/0.4);
  PpcaSpec spec(3);
  const auto theta = spec.TrainClosedForm(data);
  ASSERT_TRUE(theta.ok());
  Vector grad;
  spec.Gradient(*theta, data, &grad);
  EXPECT_LT(NormInf(grad), 1e-6);
}

TEST(Ppca, ClosedFormRecoversNoiseVariance) {
  // Data generated exactly from the PPCA model: sigma^2 estimate should be
  // close to the true noise variance.
  const double true_noise = 0.5;
  const Dataset data = MakeSyntheticLowRank(4000, 12, 3, 3, true_noise);
  PpcaSpec spec(3);
  const auto theta = spec.TrainClosedForm(data);
  ASSERT_TRUE(theta.ok());
  const double sigma = (*theta)[12 * 3];
  EXPECT_NEAR(sigma, true_noise, 0.06);
}

TEST(Ppca, ClosedFormRecoversSubspace) {
  // The learned factors must span the covariance's top eigen-subspace:
  // reconstructed covariance close to sample covariance in top directions.
  const Dataset data = MakeSyntheticLowRank(4000, 10, 2, 4, /*noise=*/0.2);
  PpcaSpec spec(2);
  const auto theta = spec.TrainClosedForm(data);
  ASSERT_TRUE(theta.ok());
  Matrix factors;
  double sigma = 0.0;
  spec.Unpack(*theta, 10, &factors, &sigma);
  // Columns of Theta must be orthogonal (closed form gives U_q scaled).
  const Matrix gram = GramCols(factors);
  EXPECT_NEAR(gram(0, 1), 0.0, 1e-8 * std::max(gram(0, 0), gram(1, 1)));
  // And capture more variance than the noise floor.
  EXPECT_GT(gram(0, 0), 4.0 * sigma * sigma);
}

TEST(Ppca, TrainerUsesClosedForm) {
  const Dataset data = MakeSyntheticLowRank(500, 8, 2, 5);
  PpcaSpec spec(2);
  const auto model = ModelTrainer().Train(spec, data);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->iterations, 0);  // closed form, no optimizer
  EXPECT_TRUE(model->converged);
}

TEST(Ppca, DiffIsCosineDistanceOnFactorBlock) {
  PpcaSpec spec(2);
  const Dataset dummy = MakeSyntheticLowRank(10, 3, 2, 6);
  // theta = [factors(6); sigma]
  Vector t1{1.0, 0.0, 0.0, 1.0, 0.0, 0.0, /*sigma=*/0.5};
  Vector t2 = t1;
  EXPECT_NEAR(spec.Diff(t1, t2, dummy), 0.0, 1e-14);
  // Scaling the factor block leaves the cosine unchanged.
  Vector t3 = t1;
  for (int i = 0; i < 6; ++i) t3[i] *= 3.0;
  EXPECT_NEAR(spec.Diff(t1, t3, dummy), 0.0, 1e-12);
  // Sigma (last component) must not affect the metric.
  Vector t4 = t1;
  t4[6] = 99.0;
  EXPECT_NEAR(spec.Diff(t1, t4, dummy), 0.0, 1e-14);
  // Orthogonal factors give diff 1.
  Vector t5{0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.5};
  EXPECT_NEAR(spec.Diff(t1, t5, dummy), 1.0, 1e-12);
}

TEST(Ppca, DiffRejectsZeroFactors) {
  PpcaSpec spec(1);
  const Dataset dummy = MakeSyntheticLowRank(10, 3, 1, 7);
  const Vector zero(4);  // 3 factors + sigma, all zero
  const Vector ok{1.0, 0.0, 0.0, 0.5};
  EXPECT_THROW(spec.Diff(zero, ok, dummy), CheckError);
}

TEST(Ppca, PredictIsUndefined) {
  PpcaSpec spec(2);
  const Dataset data = MakeSyntheticLowRank(10, 4, 2, 8);
  Vector out;
  EXPECT_THROW(spec.Predict(Vector(9), data, &out), CheckError);
}

TEST(Ppca, RejectsTooFewRowsOrTooManyFactors) {
  PpcaSpec spec(5);
  const Dataset tiny = MakeSyntheticLowRank(2, 4, 2, 9);
  EXPECT_FALSE(spec.TrainClosedForm(tiny).ok());  // q >= d
  PpcaSpec spec2(2);
  const Dataset one_row = MakeSyntheticLowRank(2, 6, 2, 10).TakeRows({0});
  EXPECT_FALSE(spec2.TrainClosedForm(one_row).ok());
}

TEST(Ppca, ObjectiveMatchesDirectDensityComputation) {
  // Cross-check the Woodbury-based objective against a direct O(d^3)
  // evaluation of 0.5*(d log 2pi + log|C| + mean x^T C^-1 x).
  const Dataset data = MakeSyntheticLowRank(60, 5, 2, 11);
  PpcaSpec spec(2);
  const auto trained = spec.TrainClosedForm(data);
  ASSERT_TRUE(trained.ok());
  Matrix factors;
  double sigma = 0.0;
  spec.Unpack(*trained, 5, &factors, &sigma);
  Matrix c = MatMulT(factors, factors);
  c.AddToDiagonal(sigma * sigma);
  const auto chol = Cholesky::Factor(c);
  ASSERT_TRUE(chol.ok());
  double quad = 0.0;
  for (Dataset::Index i = 0; i < data.num_rows(); ++i) {
    const Vector x = data.dense().Row(i);
    quad += Dot(x, chol->Solve(x));
  }
  quad /= static_cast<double>(data.num_rows());
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  const double expected = 0.5 * (5.0 * std::log(kTwoPi) + chol->LogDet() + quad);
  EXPECT_NEAR(spec.Objective(*trained, data), expected, 1e-8);
}

// The PPCA inner loops (objective/gradient reduction, per-example
// gradients, the closed-form moment accumulation) run through the parallel
// runtime with fixed chunk layouts, so every output must be bitwise
// identical at 1, 2, and 8 threads (runtime/parallel.h determinism
// contract).
TEST(Ppca, ParallelLoopsAreThreadCountInvariant) {
  const Dataset data = MakeSyntheticLowRank(1500, 10, 3, 21, /*noise=*/0.3);
  PpcaSpec spec(3);
  const Vector theta0 = spec.InitialTheta(data);

  struct Outputs {
    double objective = 0.0;
    Vector gradient;
    Matrix per_example;
    Vector closed_form;
  };
  auto run = [&] {
    Outputs out;
    out.objective = spec.ObjectiveAndGradient(theta0, data, &out.gradient);
    spec.PerExampleGradients(theta0, data, &out.per_example);
    auto trained = spec.TrainClosedForm(data);
    EXPECT_TRUE(trained.ok());
    out.closed_form = std::move(*trained);
    return out;
  };

  RuntimeOptions serial;
  serial.num_threads = 1;
  Outputs reference;
  {
    RuntimeScope scope(serial);
    reference = run();
  }
  ThreadPool pool(8);
  for (const int threads : {1, 2, 8}) {
    RuntimeOptions options;
    options.pool = &pool;
    options.num_threads = threads;
    RuntimeScope scope(options);
    const Outputs parallel = run();
    EXPECT_EQ(parallel.objective, reference.objective) << threads;
    EXPECT_EQ(MaxAbsDiff(parallel.gradient, reference.gradient), 0.0)
        << threads;
    EXPECT_EQ(MaxAbsDiff(parallel.per_example, reference.per_example), 0.0)
        << threads;
    EXPECT_EQ(MaxAbsDiff(parallel.closed_form, reference.closed_form), 0.0)
        << threads;
  }
}

TEST(Ppca, SubspaceStableAcrossSamples) {
  // Two disjoint samples from the same distribution should learn nearly
  // parallel factor parameters (this is exactly the quantity BlinkML's
  // PPCA accuracy metric tracks).
  const Dataset all = MakeSyntheticLowRank(6000, 8, 2, 12, /*noise=*/0.2);
  Rng rng(14);
  const auto [a, b] = all.Split(0.5, &rng);
  PpcaSpec spec(2);
  const auto ta = spec.TrainClosedForm(a);
  const auto tb = spec.TrainClosedForm(b);
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  EXPECT_LT(spec.Diff(*ta, *tb, a), 0.05);
}

}  // namespace
}  // namespace blinkml
