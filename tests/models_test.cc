#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "models/linear_regression.h"
#include "models/logistic_regression.h"
#include "models/max_entropy.h"
#include "models/model_spec.h"
#include "models/poisson_regression.h"
#include "models/ppca.h"
#include "models/trainer.h"
#include "linalg/cholesky.h"
#include "tests/reference/reference.h"
#include "tests/test_util.h"

namespace blinkml {
namespace {

using testing::ExpectVectorNear;
using testing::RandomVector;

// A (spec, dataset) pair for the parameterized sweeps below.
struct SpecCase {
  const char* name;
  std::shared_ptr<ModelSpec> spec;
  Dataset data;
};

std::vector<SpecCase> AllSpecCases() {
  std::vector<SpecCase> cases;
  cases.push_back({"LinDense",
                   std::make_shared<LinearRegressionSpec>(1e-3),
                   MakeSyntheticLinear(60, 5, 100)});
  cases.push_back({"LinNoReg",
                   std::make_shared<LinearRegressionSpec>(0.0),
                   MakeSyntheticLinear(60, 4, 101)});
  cases.push_back({"LRDense",
                   std::make_shared<LogisticRegressionSpec>(1e-3),
                   MakeSyntheticLogistic(60, 5, 102)});
  cases.push_back({"LRSparse",
                   std::make_shared<LogisticRegressionSpec>(1e-2),
                   MakeSyntheticLogistic(60, 12, 103, /*sparsity=*/0.4)});
  cases.push_back({"ME3Class",
                   std::make_shared<MaxEntropySpec>(1e-3),
                   MakeSyntheticMulticlass(60, 4, 3, 104)});
  cases.push_back({"PPCA",
                   std::make_shared<PpcaSpec>(2),
                   MakeSyntheticLowRank(80, 6, 2, 105)});
  cases.push_back({"Poisson",
                   std::make_shared<PoissonRegressionSpec>(1e-2),
                   MakeSyntheticCounts(60, 5, 106)});
  return cases;
}

class SpecSweep : public ::testing::TestWithParam<int> {
 protected:
  SpecCase Case() const {
    return AllSpecCases()[static_cast<std::size_t>(GetParam())];
  }
};

// Gradient check: the analytic gradient must match central finite
// differences of the objective. This validates the whole MLE plumbing —
// objective, gradient, and parameter packing — for every model class.
TEST_P(SpecSweep, GradientMatchesFiniteDifferences) {
  const SpecCase c = Case();
  Rng rng(1000 + GetParam());
  Vector theta = c.spec->InitialTheta(c.data);
  // Perturb away from any special point.
  for (Vector::Index i = 0; i < theta.size(); ++i) {
    theta[i] += 0.15 * rng.Normal();
  }
  Vector grad;
  c.spec->Gradient(theta, c.data, &grad);
  ASSERT_EQ(grad.size(), theta.size());
  const double h = 1e-6;
  // Check a subset of coordinates (all for small models).
  const Vector::Index stride = std::max<Vector::Index>(1, theta.size() / 25);
  for (Vector::Index j = 0; j < theta.size(); j += stride) {
    Vector tp = theta, tm = theta;
    tp[j] += h;
    tm[j] -= h;
    const double fd =
        (c.spec->Objective(tp, c.data) - c.spec->Objective(tm, c.data)) /
        (2.0 * h);
    EXPECT_NEAR(grad[j], fd, 1e-4 * std::max(1.0, std::fabs(fd)))
        << c.name << " coordinate " << j;
  }
}

// The average of per-example gradients plus the regularizer gradient must
// equal the full gradient (Equation 3 of the paper).
TEST_P(SpecSweep, PerExampleGradientsAverageToFullGradient) {
  const SpecCase c = Case();
  Rng rng(2000 + GetParam());
  Vector theta = c.spec->InitialTheta(c.data);
  for (Vector::Index i = 0; i < theta.size(); ++i) {
    theta[i] += 0.1 * rng.Normal();
  }
  Matrix q;
  c.spec->PerExampleGradients(theta, c.data, &q);
  ASSERT_EQ(q.rows(), c.data.num_rows());
  ASSERT_EQ(q.cols(), theta.size());
  Vector mean(theta.size());
  for (Matrix::Index i = 0; i < q.rows(); ++i) {
    for (Matrix::Index j = 0; j < q.cols(); ++j) mean[j] += q(i, j);
  }
  mean *= 1.0 / static_cast<double>(q.rows());
  // r(theta) = beta * theta for the GLMs, zero for PPCA.
  Axpy(c.spec->l2(), theta, &mean);
  Vector grad;
  c.spec->Gradient(theta, c.data, &grad);
  ExpectVectorNear(mean, grad, 1e-8, c.name);
}

// Sparse per-example gradients must match the dense ones.
TEST_P(SpecSweep, SparseGradientsMatchDense) {
  const SpecCase c = Case();
  if (!c.spec->has_sparse_gradients()) GTEST_SKIP();
  Rng rng(3000 + GetParam());
  Vector theta = c.spec->InitialTheta(c.data);
  for (Vector::Index i = 0; i < theta.size(); ++i) {
    theta[i] += 0.1 * rng.Normal();
  }
  Matrix dense;
  c.spec->PerExampleGradients(theta, c.data, &dense);
  const SparseMatrix sparse =
      c.spec->PerExampleGradientsSparse(theta, c.data);
  testing::ExpectMatrixNear(sparse.ToDense(), dense, 1e-12, c.name);
}

// diff(m, m) == 0 and diff is symmetric.
TEST_P(SpecSweep, DiffIsAMetricOnIdenticalAndSwappedModels) {
  const SpecCase c = Case();
  Rng rng(4000 + GetParam());
  Vector t1 = c.spec->InitialTheta(c.data);
  for (Vector::Index i = 0; i < t1.size(); ++i) t1[i] += 0.3 * rng.Normal();
  Vector t2 = t1;
  for (Vector::Index i = 0; i < t2.size(); ++i) t2[i] += 0.3 * rng.Normal();
  EXPECT_NEAR(c.spec->Diff(t1, t1, c.data), 0.0, 1e-12) << c.name;
  EXPECT_NEAR(c.spec->Diff(t1, t2, c.data), c.spec->Diff(t2, t1, c.data),
              1e-9)
      << c.name;
  EXPECT_GE(c.spec->Diff(t1, t2, c.data), 0.0) << c.name;
}

// Scores must be linear in theta (the estimators rely on this).
TEST_P(SpecSweep, ScoresAreLinearInTheta) {
  const SpecCase c = Case();
  if (!c.spec->has_linear_scores()) GTEST_SKIP();
  Rng rng(5000 + GetParam());
  const Vector::Index p = c.spec->ParamDim(c.data);
  const Vector t1 = RandomVector(p, &rng);
  const Vector t2 = RandomVector(p, &rng);
  Vector combo = t1;
  combo *= 2.0;
  Axpy(-0.5, t2, &combo);
  Matrix expected = c.spec->Scores(t1, c.data);
  expected *= 2.0;
  Matrix s2 = c.spec->Scores(t2, c.data);
  s2 *= -0.5;
  expected += s2;
  testing::ExpectMatrixNear(c.spec->Scores(combo, c.data), expected, 1e-9,
                            c.name);
}

// DiffFromScores must agree with Diff.
TEST_P(SpecSweep, DiffFromScoresMatchesDiff) {
  const SpecCase c = Case();
  if (!c.spec->has_linear_scores()) GTEST_SKIP();
  Rng rng(6000 + GetParam());
  const Vector::Index p = c.spec->ParamDim(c.data);
  const Vector t1 = RandomVector(p, &rng);
  const Vector t2 = RandomVector(p, &rng);
  const double from_scores = c.spec->DiffFromScores(
      c.spec->Scores(t1, c.data), c.spec->Scores(t2, c.data), c.data);
  EXPECT_NEAR(from_scores, c.spec->Diff(t1, t2, c.data), 1e-12) << c.name;
}

// DiffsFromScoreBatch is DiffFromScores on each draw's materialized
// s1 = u * a1 + base (base without u) and s2 = w * a2 + s1, bitwise, for
// every group width, in both the accuracy and the size form.
TEST_P(SpecSweep, DiffsFromScoreBatchEqualsDiffFromScores) {
  const SpecCase c = Case();
  if (!c.spec->has_linear_scores()) GTEST_SKIP();
  Rng rng(6100 + GetParam());
  const Vector::Index p = c.spec->ParamDim(c.data);
  const Matrix base = c.spec->Scores(RandomVector(p, &rng), c.data);
  const Matrix::Index h = base.rows();
  const Matrix::Index cols = base.cols();
  for (Matrix::Index width = 1; width <= 8; ++width) {
    std::vector<Vector> us, ws;
    std::vector<const Vector*> u_ptrs, w_ptrs;
    for (Matrix::Index t = 0; t < width; ++t) {
      us.push_back(RandomVector(p, &rng));
      ws.push_back(RandomVector(p, &rng));
    }
    for (Matrix::Index t = 0; t < width; ++t) {
      u_ptrs.push_back(&us[static_cast<std::size_t>(t)]);
      w_ptrs.push_back(&ws[static_cast<std::size_t>(t)]);
    }
    const Matrix u = c.spec->ScoresBatch(u_ptrs, c.data);
    const Matrix w = c.spec->ScoresBatch(w_ptrs, c.data);
    for (const bool has_u : {false, true}) {
      const double a1 = has_u ? 0.3 : 0.0;
      const double a2 = has_u ? 0.7 : 1.0;
      std::vector<double> got(static_cast<std::size_t>(width));
      c.spec->DiffsFromScoreBatch(base, has_u ? &u : nullptr, a1, w, a2,
                                  c.data, got.data());
      for (Matrix::Index t = 0; t < width; ++t) {
        Matrix s1(h, cols), s2(h, cols);
        for (Matrix::Index r = 0; r < h; ++r) {
          for (Matrix::Index j = 0; j < cols; ++j) {
            s1(r, j) = has_u ? u(r, t * cols + j) * a1 + base(r, j)
                             : base(r, j);
            s2(r, j) = w(r, t * cols + j) * a2 + s1(r, j);
          }
        }
        EXPECT_EQ(got[static_cast<std::size_t>(t)],
                  c.spec->DiffFromScores(s1, s2, c.data))
            << c.name << " width=" << width << " t=" << t
            << " has_u=" << has_u;
      }
    }
  }
}

// Training decreases the objective below the starting point's value and
// reaches (near-)zero gradient.
TEST_P(SpecSweep, TrainingConverges) {
  const SpecCase c = Case();
  const ModelTrainer trainer;
  const auto model = trainer.Train(*c.spec, c.data);
  ASSERT_TRUE(model.ok()) << c.name;
  EXPECT_TRUE(model->converged) << c.name;
  const double at_init =
      c.spec->Objective(c.spec->InitialTheta(c.data), c.data);
  EXPECT_LE(model->objective, at_init + 1e-9) << c.name;
  Vector grad;
  c.spec->Gradient(model->theta, c.data, &grad);
  EXPECT_LT(NormInf(grad), 1e-3) << c.name;
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, SpecSweep, ::testing::Range(0, 7));

// ---------- Model-specific tests ----------

// ---- The GLM walk against the row-by-row reference ----

// 1,089 rows: 17 panels of 64 plus a one-row last panel, and four
// GradientGrain chunks of 256 plus one of 65 — a multiple of neither.
constexpr Dataset::Index kWalkRows = 1089;

// Sparse binary rows of 0 to 12 entries; every seventh row is empty.
Dataset SparseWalkData() {
  Rng rng(91);
  CsrBuilder builder;
  Vector labels(kWalkRows);
  for (Dataset::Index r = 0; r < kWalkRows; ++r) {
    const Dataset::Index nnz = r % 7 == 3 ? 0 : r % 13;
    for (const std::int64_t c : SampleWithoutReplacement(300, nnz, &rng)) {
      builder.Add(c, rng.Normal());
    }
    builder.FinishRow();
    labels[r] = rng.Bernoulli(0.4) ? 1.0 : 0.0;
  }
  return Dataset(std::move(builder).Build(300), std::move(labels),
                 Task::kBinary);
}

bool SameBits(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

// Panels, the next-panel prefetch, the four-row dots and the vector row
// update change no bit: every GLM pass equals the row-by-row reference
// (canonical margins, the link, entry-by-entry updates) at both ISAs.
TEST(GlmSpec, PassesBitwiseEqualRowByRowReference) {
  const Dataset sparse = SparseWalkData();
  const Dataset dense41 = MakeSyntheticLogistic(kWalkRows, 41, 92);
  const Dataset dense100 = MakeSyntheticLogistic(kWalkRows, 100, 93);
  const LinearRegressionSpec linear(1e-3);
  const LogisticRegressionSpec logistic(1e-3);
  const PoissonRegressionSpec poisson(1e-3);
  const std::vector<std::pair<const ModelSpec*, reference::GlmLink>> specs = {
      {&linear, reference::LinearLink()},
      {&logistic, reference::LogisticLink()},
      {&poisson, reference::PoissonLink()}};
  for (const auto& [spec, link] : specs) {
    for (const Dataset* data : {&sparse, &dense41, &dense100}) {
      const Vector theta = testing::Trainedish(*data, 94);
      const std::string what =
          spec->name() + (data->is_sparse() ? " sparse" : " dense") +
          " d=" + std::to_string(data->dim());
      Vector want_grad;
      const double want_f = reference::GlmObjectiveAndGradient(
          link, theta, *data, spec->l2(), &want_grad);
      const double want_value =
          reference::GlmObjective(link, theta, *data, spec->l2());
      const Vector want_coeffs =
          reference::GlmGradientCoeffs(link, theta, *data);
      const Matrix want_q =
          reference::GlmPerExampleGradients(link, theta, *data);
      const Vector want_pred = reference::GlmPredict(link, theta, *data);
      for (const KernelIsa isa : testing::IsasToTest()) {
        testing::AtIsa(isa, [&] {
          const std::string at = what + " " + testing::IsaName(isa);
          Vector grad;
          const double f = spec->ObjectiveAndGradient(theta, *data, &grad);
          EXPECT_TRUE(SameBits(&f, &want_f, 1)) << at;
          ASSERT_EQ(grad.size(), want_grad.size()) << at;
          EXPECT_TRUE(SameBits(grad.data(), want_grad.data(),
                               static_cast<std::size_t>(grad.size())))
              << at;
          const double value = spec->Objective(theta, *data);
          EXPECT_TRUE(SameBits(&value, &want_value, 1)) << at;
          Vector coeffs;
          spec->PerExampleGradientCoeffs(theta, *data, &coeffs);
          EXPECT_TRUE(SameBits(coeffs.data(), want_coeffs.data(),
                               static_cast<std::size_t>(kWalkRows)))
              << at;
          Matrix q;
          spec->PerExampleGradients(theta, *data, &q);
          EXPECT_TRUE(SameBits(q.data(), want_q.data(),
                               static_cast<std::size_t>(want_q.size())))
              << at;
          Vector pred;
          spec->Predict(theta, *data, &pred);
          EXPECT_TRUE(SameBits(pred.data(), want_pred.data(),
                               static_cast<std::size_t>(kWalkRows)))
              << at;
        });
      }
    }
  }
}

TEST(LinearRegression, MatchesClosedFormRidgeSolution) {
  const Dataset data = MakeSyntheticLinear(400, 6, 200, /*noise=*/0.3);
  const double beta = 0.01;
  LinearRegressionSpec spec(beta);
  const ModelTrainer trainer;
  const auto model = trainer.Train(spec, data);
  ASSERT_TRUE(model.ok());
  // Ridge oracle: (X^T X / n + beta I) theta = X^T y / n.
  Matrix gram = GramCols(data.dense());
  gram *= 1.0 / static_cast<double>(data.num_rows());
  gram.AddToDiagonal(beta);
  Vector xty = MatTVec(data.dense(), data.labels());
  xty *= 1.0 / static_cast<double>(data.num_rows());
  const auto chol = Cholesky::Factor(gram);
  ASSERT_TRUE(chol.ok());
  ExpectVectorNear(model->theta, chol->Solve(xty), 1e-4, "ridge");
}

// The GlmSpec constructor accepts only a finite, non-negative l2; +inf
// would zero theta and report a vacuous guarantee.
TEST(GlmSpec, RejectsInvalidL2) {
  for (const double l2 : {-0.1, std::nan(""), HUGE_VAL}) {
    EXPECT_THROW(LinearRegressionSpec{l2}, CheckError) << l2;
    EXPECT_THROW(LogisticRegressionSpec{l2}, CheckError) << l2;
    EXPECT_THROW(PoissonRegressionSpec{l2}, CheckError) << l2;
  }
}

TEST(LinearRegression, ClosedFormHessianMatchesDefinition) {
  const Dataset data = MakeSyntheticLinear(50, 4, 201);
  LinearRegressionSpec spec(0.5);
  Rng rng(7);
  const auto h = spec.ClosedFormHessian(RandomVector(4, &rng), data);
  ASSERT_TRUE(h.ok());
  Matrix expected = GramCols(data.dense());
  expected *= 1.0 / 50.0;
  expected.AddToDiagonal(0.5);
  testing::ExpectMatrixNear(*h, *h, 0.0);
  testing::ExpectMatrixNear(*h, expected, 1e-10);
}

TEST(LogisticRegression, SigmoidIsStableAtExtremes) {
  EXPECT_NEAR(LogisticRegressionSpec::Sigmoid(0.0), 0.5, 1e-15);
  EXPECT_NEAR(LogisticRegressionSpec::Sigmoid(1000.0), 1.0, 1e-15);
  EXPECT_NEAR(LogisticRegressionSpec::Sigmoid(-1000.0), 0.0, 1e-15);
  // No overflow/NaN at extremes; positive wherever exp is representable.
  EXPECT_GT(LogisticRegressionSpec::Sigmoid(-700.0), 0.0);
  EXPECT_LT(LogisticRegressionSpec::Sigmoid(700.0), 1.0 + 1e-15);
  EXPECT_TRUE(std::isfinite(LogisticRegressionSpec::Sigmoid(-1e300)));
}

TEST(LogisticRegression, LearnsSeparableData) {
  // Well-separated classes: the trained model should classify nearly
  // everything correctly.
  Matrix x(200, 2);
  Vector y(200);
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const bool positive = i % 2 == 0;
    x(i, 0) = (positive ? 3.0 : -3.0) + 0.5 * rng.Normal();
    x(i, 1) = rng.Normal();
    y[i] = positive ? 1.0 : 0.0;
  }
  const Dataset data(std::move(x), std::move(y), Task::kBinary);
  LogisticRegressionSpec spec(1e-3);
  const auto model = ModelTrainer().Train(spec, data);
  ASSERT_TRUE(model.ok());
  EXPECT_LT(spec.GeneralizationError(model->theta, data), 0.02);
}

TEST(LogisticRegression, ClosedFormHessianMatchesFiniteDifference) {
  const Dataset data = MakeSyntheticLogistic(80, 3, 202);
  LogisticRegressionSpec spec(0.01);
  Rng rng(9);
  const Vector theta = RandomVector(3, &rng);
  const auto h = spec.ClosedFormHessian(theta, data);
  ASSERT_TRUE(h.ok());
  // Finite-difference the gradient.
  const double step = 1e-6;
  for (int j = 0; j < 3; ++j) {
    Vector tp = theta, tm = theta;
    tp[j] += step;
    tm[j] -= step;
    Vector gp, gm;
    spec.Gradient(tp, data, &gp);
    spec.Gradient(tm, data, &gm);
    for (int r = 0; r < 3; ++r) {
      EXPECT_NEAR((*h)(r, j), (gp[r] - gm[r]) / (2.0 * step), 1e-5);
    }
  }
}

TEST(MaxEntropy, SoftmaxSumsToOneAndIsStable) {
  const double scores[3] = {1000.0, 1001.0, 999.0};
  double probs[3];
  MaxEntropySpec::Softmax(scores, 3, probs);
  EXPECT_NEAR(probs[0] + probs[1] + probs[2], 1.0, 1e-12);
  EXPECT_GT(probs[1], probs[0]);
  EXPECT_GT(probs[0], probs[2]);
}

TEST(MaxEntropy, BinaryCaseAgreesWithLogisticRegression) {
  // A 2-class max-entropy model and logistic regression must make the same
  // predictions (their decision boundaries coincide at the MLE).
  const Dataset data = MakeSyntheticLogistic(300, 4, 203);
  const Dataset multiclass(
      Matrix(data.dense()), Vector(data.labels()), Task::kMulticlass, 2);
  LogisticRegressionSpec lr(1e-4);
  MaxEntropySpec me(1e-4);
  const auto lr_model = ModelTrainer().Train(lr, data);
  const auto me_model = ModelTrainer().Train(me, multiclass);
  ASSERT_TRUE(lr_model.ok());
  ASSERT_TRUE(me_model.ok());
  Vector lr_pred, me_pred;
  lr.Predict(lr_model->theta, data, &lr_pred);
  me.Predict(me_model->theta, multiclass, &me_pred);
  int disagreements = 0;
  for (Dataset::Index i = 0; i < data.num_rows(); ++i) {
    if (lr_pred[i] != me_pred[i]) ++disagreements;
  }
  EXPECT_LE(disagreements, 3);  // identical up to boundary ties
}

TEST(MaxEntropy, LearnsWellSeparatedClasses) {
  const Dataset data = MakeSyntheticMulticlass(400, 6, 4, 204, /*spread=*/4.0);
  MaxEntropySpec spec(1e-3);
  const auto model = ModelTrainer().Train(spec, data);
  ASSERT_TRUE(model.ok());
  EXPECT_LT(spec.GeneralizationError(model->theta, data), 0.05);
}

TEST(ModelSpec, GeneralizationErrorForClassifiers) {
  Matrix x = {{1.0}, {1.0}, {1.0}, {1.0}};
  Vector y{1.0, 1.0, 0.0, 0.0};
  const Dataset data(std::move(x), std::move(y), Task::kBinary);
  LogisticRegressionSpec spec;
  // theta = [1]: margin 1 > 0 -> predicts 1 everywhere -> 50% error.
  EXPECT_DOUBLE_EQ(spec.GeneralizationError(Vector{1.0}, data), 0.5);
}

TEST(ModelSpec, LabelScaleFallsBackOnDegenerateLabels) {
  Matrix x(3, 1);
  const Dataset constant(Matrix(x), Vector{2.0, 2.0, 2.0}, Task::kRegression);
  EXPECT_DOUBLE_EQ(LabelScale(constant), 1.0);
  const Dataset varied(std::move(x), Vector{0.0, 1.0, 2.0},
                       Task::kRegression);
  EXPECT_NEAR(LabelScale(varied), std::sqrt(2.0 / 3.0), 1e-12);
}

TEST(Trainer, RejectsEmptyDataset) {
  LinearRegressionSpec spec;
  const Dataset empty(Matrix(0, 3), Vector(), Task::kUnsupervised);
  EXPECT_FALSE(ModelTrainer().Train(spec, empty).ok());
}

TEST(Trainer, WarmStartReducesIterations) {
  const Dataset data = MakeSyntheticLogistic(500, 8, 205);
  LogisticRegressionSpec spec(1e-3);
  const auto cold = ModelTrainer().Train(spec, data);
  ASSERT_TRUE(cold.ok());
  const auto warm = ModelTrainer().Train(spec, data, &cold->theta);
  ASSERT_TRUE(warm.ok());
  EXPECT_LE(warm->iterations, std::max(1, cold->iterations / 2));
}

TEST(Trainer, ForcedOptimizerKindIsRespected) {
  // d=200 would normally select L-BFGS; force BFGS and confirm both reach
  // the same optimum.
  const Dataset data = MakeSyntheticLogistic(300, 120, 206);
  LogisticRegressionSpec spec(1e-2);
  TrainerOptions force_bfgs;
  force_bfgs.optimizer_kind = OptimizerKind::kBfgs;
  const auto a = ModelTrainer(force_bfgs).Train(spec, data);
  const auto b = ModelTrainer().Train(spec, data);  // policy: L-BFGS
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a->objective, b->objective, 1e-6);
}

}  // namespace
}  // namespace blinkml
