// The (epsilon, delta) promise, measured: BENCH_guarantee.json.
//
// BlinkML promises that, with probability at least 1 - delta, the model it
// returns disagrees with m_N, the model trained on its whole pool, on at
// most an epsilon fraction of points (paper Section 5.3, Figure 6 / Table
// 5), and it sells the promise as a speedup over training m_N (Section
// 5.2, Figure 5). For each cell (model class x epsilon x regime) this
// harness runs T fixed seeds of Coordinator::Train, trains m_N on that
// run's own pool (Coordinator::TrainFullModel) right after it, and
// records:
//   - the violations (realized v > epsilon) with their exact one-sided 95%
//     Clopper-Pearson bound, and whether they stay within the upper
//     Bin(T, delta) quantile at a 1e-3 false-alarm rate (the rule
//     coordinator_test asserts);
//   - mean estimated epsilon against mean realized v, and mean n/N;
//   - the shares of runs that returned m_0 and whose returned model hit
//     the optimizer's iteration cap (converged = false);
//   - the speedup t(m_N) / t(BlinkML) per seed as quartiles, the two timed
//     back to back, so the ratio survives the host speed drift absolute
//     seconds do not (Figure 5);
//   - the served contract_satisfied flag against realized violation (2x2).
// The linear and logistic wire-default cells also run the paper's three
// Section 5.4 baselines on the same seed and pool (Figure 7: the same
// fields, their speedup over m_N included), and both cells repeat under
// ClosedForm and InverseGradients statistics (Figure 9's methods as a cell
// dimension).
//
// A cell whose violations exceed the allowed count, or whose seeds did not
// all run, is recorded with "pass": false and named under
// "failing_cells"; none is dropped.
//
// The dense cells follow Jiao et al., "Beyond Maximum Likelihood" (arXiv
// 1409.7458): plug-in MLE behaves worst when the dimension is large next to
// the sample, which is BlinkML's n_0 regime; hence the small-n_0 cells.
//
// Usage: bench_guarantee [--json[=path]] [--threads=N] [--trace=path]
//   BLINKML_SCALE multiplies every cell's rows (default 1);
//   BLINKML_REPEATS sets T for every cell (default 200 seeds on the 40K-row
//   cells, 20 on the 200K-row train-dense and search-sparse shapes).
// Exit status 0 whatever the cells measured: failing cells are the record.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "bench/bench_common.h"
#include "core/coordinator.h"
#include "data/generators.h"
#include "models/linear_regression.h"
#include "models/logistic_regression.h"
#include "models/max_entropy.h"
#include "models/poisson_regression.h"
#include "models/ppca.h"
#include "net/codec.h"
#include "random/rng.h"
#include "runtime/thread_pool.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace blinkml {
namespace bench {
namespace {

constexpr double kFalseAlarm = 1e-3;
constexpr double kConfidence = 0.95;

struct Cell {
  std::string model;   // "linear", "logistic", "poisson", "max_entropy", "ppca"
  std::string regime;  // what the cell stresses
  std::shared_ptr<const Dataset> data;
  std::shared_ptr<const ModelSpec> spec;
  double l2 = 0.0;  // 0 for PPCA
  BlinkConfig config;
  ApproximationContract contract;
  int trials = 0;
  bool baselines = false;  // Figure 7

  std::string Name() const {
    return model + "/" + regime + "/" + StatsMethodName(config.stats_method) +
           StrFormat("/eps=%g", contract.epsilon);
  }
};

// What a tenant that sets nothing gets over the wire (net::WireConfig),
// with n_0 overridden by the regime.
BlinkConfig WireConfigWith(Dataset::Index n0) {
  BlinkConfig config = net::ToBlinkConfig(net::WireConfig{});
  config.initial_sample_size = n0;
  return config;
}

// Gamma(shape, 1/shape) by Marsaglia and Tsang (shape >= 1): mean 1,
// variance 1/shape.
double GammaMeanOne(double shape, Rng* rng) {
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    const double x = rng->Normal();
    const double t = 1.0 + c * x;
    if (t <= 0.0) continue;
    const double v = t * t * t;
    if (std::log(rng->Uniform()) < 0.5 * x * x + d - d * v + d * std::log(v)) {
      return d * v / shape;
    }
  }
}

// Gamma-Poisson (negative binomial) counts with MakeSyntheticCounts' design
// and a constant column: the mean structure is a well-specified Poisson
// GLM, but Var(y) = mu + mu^2 / shape, so only the variance is wrong.
Dataset MakeOverdispersedCounts(std::int64_t n, std::int64_t dim,
                                std::uint64_t seed, double shape) {
  Rng rng(seed);
  Vector theta(dim);
  for (std::int64_t j = 0; j < dim; ++j) {
    theta[j] = rng.Normal(0.0, 0.8 / std::sqrt(static_cast<double>(dim)));
  }
  Matrix x(n, dim + 1);
  Vector y(n);
  for (std::int64_t i = 0; i < n; ++i) {
    double eta = 0.5;
    for (std::int64_t j = 0; j < dim; ++j) {
      x(i, j) = rng.Normal();
      eta += x(i, j) * theta[j];
    }
    x(i, dim) = 1.0;
    y[i] = static_cast<double>(
        rng.Poisson(std::exp(eta) * GammaMeanOne(shape, &rng)));
  }
  return Dataset(std::move(x), std::move(y), Task::kRegression);
}

std::vector<Cell> MakeCells(double scale, int repeats) {
  const auto rows = [scale](std::int64_t base) {
    return std::max<std::int64_t>(
        1000, static_cast<std::int64_t>(scale * static_cast<double>(base)));
  };
  const int dense_trials = repeats > 0 ? repeats : 200;
  const int shape_trials = repeats > 0 ? repeats : 20;
  const auto shared = [](Dataset d) {
    return std::make_shared<const Dataset>(std::move(d));
  };
  const std::int64_t n = rows(40'000);
  const auto linear_sigma = [&](double sigma) {
    return shared(MakeSyntheticLinear(n, 20, 7, sigma));
  };
  const auto linear_1 = linear_sigma(1.0);
  const auto logistic = shared(MakeSyntheticLogistic(n, 20, 8));
  const auto counts = shared(MakeSyntheticCounts(n, 10, 9));
  const auto counts_1 = shared(WithConstantColumn(*counts));
  const auto overdispersed = shared(MakeOverdispersedCounts(n, 10, 10, 2.0));

  std::vector<Cell> cells;
  const auto add = [&](const std::string& model, const std::string& regime,
                       std::shared_ptr<const Dataset> data,
                       std::shared_ptr<const ModelSpec> spec, double l2,
                       BlinkConfig config, double epsilon, int trials,
                       bool baselines = false) {
    Cell c;
    c.model = model;
    c.regime = regime;
    c.data = std::move(data);
    c.spec = std::move(spec);
    c.l2 = l2;
    c.config = config;
    c.contract = {epsilon, 0.05};
    c.trials = trials;
    c.baselines = baselines;
    cells.push_back(std::move(c));
  };
  const auto linear = std::make_shared<const LinearRegressionSpec>(1e-3);
  const auto lr = std::make_shared<const LogisticRegressionSpec>(1e-3);
  const auto poisson = std::make_shared<const PoissonRegressionSpec>(1e-3);

  // Wire defaults, with Figure 7's baselines on the default method and
  // Figure 9's three statistics methods.
  for (const StatsMethod method :
       {StatsMethod::kObservedFisher, StatsMethod::kClosedForm,
        StatsMethod::kInverseGradients}) {
    BlinkConfig config = WireConfigWith(10'000);
    config.stats_method = method;
    const bool fig7 = method == StatsMethod::kObservedFisher;
    add("linear", "wire-defaults sigma=1", linear_1, linear, 1e-3, config,
        0.02, dense_trials, fig7);
    add("logistic", "wire-defaults", logistic, lr, 1e-3, config, 0.02,
        dense_trials, fig7);
  }
  add("poisson", "wire-defaults +const", counts_1, poisson, 1e-3,
      WireConfigWith(10'000), 0.02, dense_trials);

  // Small n_0 (n_0 / p = 25 for linear and logistic).
  for (const double epsilon : {0.02, 0.05}) {
    add("linear", "n0=500 sigma=1", linear_1, linear, 1e-3,
        WireConfigWith(500), epsilon, dense_trials);
    add("logistic", "n0=500", logistic, lr, 1e-3, WireConfigWith(500),
        epsilon, dense_trials);
    add("poisson", "n0=500 +const", counts_1, poisson, 1e-3,
        WireConfigWith(500), epsilon, dense_trials);
  }

  // Label noise, counts with and without an intercept, overdispersion: the
  // audit's n_0 = 2K.
  for (const double sigma : {0.25, 1.0, 4.0}) {
    add("linear", StrFormat("n0=2K sigma=%g", sigma),
        sigma == 1.0 ? linear_1 : linear_sigma(sigma), linear, 1e-3,
        WireConfigWith(2'000), 0.02, dense_trials);
  }
  add("logistic", "n0=2K", logistic, lr, 1e-3, WireConfigWith(2'000), 0.02,
      dense_trials);
  add("poisson", "n0=2K no-const", counts, poisson, 1e-3,
      WireConfigWith(2'000), 0.02, dense_trials);
  add("poisson", "n0=2K +const", counts_1, poisson, 1e-3,
      WireConfigWith(2'000), 0.02, dense_trials);
  add("poisson", "n0=2K overdispersed(shape=2) +const", overdispersed,
      poisson, 1e-3, WireConfigWith(2'000), 0.02, dense_trials);

  // Library-only classes (the wire serves only the three GLMs).
  add("max_entropy", "n0=2K 3 classes",
      shared(MakeSyntheticMulticlass(n, 8, 3, 11)),
      std::make_shared<const MaxEntropySpec>(1e-3), 1e-3,
      WireConfigWith(2'000), 0.05, dense_trials);
  add("ppca", "n0=2K rank 2", shared(MakeSyntheticLowRank(n, 10, 2, 12, 0.4)),
      std::make_shared<const PpcaSpec>(2), 0.0, WireConfigWith(2'000), 0.01,
      dense_trials);

  // The bench_e2e shapes. train-dense: 200K x 100 logistic at wire defaults
  // over its epsilon mix and l2 range.
  const auto train_dense = shared(MakeSyntheticLogistic(rows(200'000), 100, 1));
  for (const double l2 : {1e-4, 1e-3, 1e-2}) {
    for (const double epsilon : {0.03, 0.04, 0.05}) {
      add("logistic", StrFormat("train-dense l2=%g", l2), train_dense,
          std::make_shared<const LogisticRegressionSpec>(l2), l2,
          WireConfigWith(10'000), epsilon, shape_trials);
    }
  }
  // search-sparse: Criteo-like 200K x 20K, one candidate per cell.
  const auto search_sparse = shared(MakeCriteoLike(rows(200'000), 1, 20'000,
                                                   /*nnz_per_row=*/39));
  BlinkConfig sparse_config = WireConfigWith(8'000);
  sparse_config.stats_sample_size = 256;
  sparse_config.accuracy_samples = 256;
  sparse_config.size_samples = 128;
  for (const double l2 : {1e-4, 1e-3, 1e-2}) {
    add("logistic", StrFormat("search-sparse l2=%g", l2), search_sparse,
        std::make_shared<const LogisticRegressionSpec>(l2), l2, sparse_config,
        0.05, shape_trials);
  }
  return cells;
}

// One policy's outcomes over a cell's seeds.
struct Tally {
  int runs = 0;
  int errors = 0;
  int violations = 0;
  double v_sum = 0.0;
  double v_max = 0.0;
  double fraction_sum = 0.0;
  std::vector<double> speedups;  // t(m_N) / t(policy)

  void Add(double v, double epsilon, double fraction, double speedup) {
    ++runs;
    violations += v > epsilon ? 1 : 0;
    v_sum += v;
    v_max = std::max(v_max, v);
    fraction_sum += fraction;
    speedups.push_back(speedup);
  }

  double Mean(double sum) const { return runs > 0 ? sum / runs : 0.0; }

  /// Every seed ran, and the violations are within the upper
  /// Bin(runs, delta) quantile at the false-alarm rate.
  bool Pass(double delta) const {
    return errors == 0 &&
           violations <= BinomialUpperQuantile(runs, delta, kFalseAlarm);
  }

  /// The fields every policy's record carries.
  void AppendTo(JsonObject* j, double delta) const {
    j->Int("runs", runs)
        .Int("errors", errors)
        .Int("violations", violations)
        .Number("violation_upper95",
                runs > 0
                    ? ClopperPearsonUpper(violations, runs, 1.0 - kConfidence)
                    : 1.0)
        .Int("violations_allowed",
             BinomialUpperQuantile(runs, delta, kFalseAlarm))
        .Bool("pass", Pass(delta))
        .Number("realized_v_mean", Mean(v_sum))
        .Number("realized_v_max", v_max)
        .Number("sample_fraction_mean", Mean(fraction_sum))
        .Number("speedup_p25", Percentile(speedups, 25.0))
        .Number("speedup_p50", Percentile(speedups, 50.0))
        .Number("speedup_p75", Percentile(speedups, 75.0));
  }
};

struct CellOutcome {
  Tally blinkml;
  double epsilon_hat_sum = 0.0;
  int initial_only = 0;
  int not_converged = 0;
  // contract_satisfied x realized violation.
  int satisfied_held = 0, satisfied_violated = 0;
  int unsatisfied_held = 0, unsatisfied_violated = 0;
  std::vector<Tally> baselines;  // FixedRatio, RelativeRatio, IncEstimator
};

const char* const kBaselineNames[] = {"FixedRatio(1%)", "RelativeRatio(10%)",
                                      "IncEstimator"};

CellOutcome RunCell(const Cell& cell, int threads) {
  CellOutcome out;
  out.baselines.resize(cell.baselines ? 3 : 0);
  const ModelSpec& spec = *cell.spec;
  const double epsilon = cell.contract.epsilon;
  for (int t = 0; t < cell.trials; ++t) {
    BlinkConfig config = cell.config;
    config.seed = 1000 + 17 * static_cast<std::uint64_t>(t);
    config.runtime.num_threads = threads;
    // Train and TrainFullModel install the config's lanes themselves; the
    // baselines run under this scope.
    RuntimeScope runtime_scope(config.runtime);
    const Coordinator coordinator(config);
    WallTimer timer;
    const Result<ApproxResult> result =
        coordinator.Train(spec, *cell.data, cell.contract);
    const double blink_seconds = timer.Seconds();
    const Result<TrainedModel> full =
        coordinator.TrainFullModel(spec, *cell.data);
    if (!result.ok() || !full.ok()) {
      ++out.blinkml.errors;
      continue;
    }
    const double v =
        spec.Diff(result->model.theta, full->theta, *result->holdout);
    const double n_over_n = static_cast<double>(result->sample_size) /
                            static_cast<double>(result->full_size);
    out.blinkml.Add(v, epsilon, n_over_n, full->train_seconds / blink_seconds);
    out.epsilon_hat_sum += result->final_epsilon;
    out.initial_only += result->used_initial_only ? 1 : 0;
    out.not_converged += result->model.converged ? 0 : 1;
    const bool violated = v > epsilon;
    if (result->contract_satisfied) {
      ++(violated ? out.satisfied_violated : out.satisfied_held);
    } else {
      ++(violated ? out.unsatisfied_violated : out.unsatisfied_held);
    }

    // The baselines split the holdout off as Train does (same seed, same
    // stream), so m_N is their full model too.
    const auto run_baseline = [&](std::size_t b) {
      if (b == 0) {
        return FixedRatioBaseline(0.01, config).Train(spec, *cell.data,
                                                       cell.contract);
      }
      if (b == 1) {
        return RelativeRatioBaseline(0.10, config)
            .Train(spec, *cell.data, cell.contract);
      }
      return IncEstimatorBaseline(config).Train(spec, *cell.data,
                                                cell.contract);
    };
    for (std::size_t b = 0; b < out.baselines.size(); ++b) {
      const Result<BaselineResult> r = run_baseline(b);
      if (!r.ok()) {
        ++out.baselines[b].errors;
        continue;
      }
      out.baselines[b].Add(
          spec.Diff(r->model.theta, full->theta, r->holdout), epsilon,
          static_cast<double>(r->sample_size) /
              static_cast<double>(r->full_size),
          full->train_seconds / r->total_seconds);
    }
  }
  return out;
}

JsonObject CellJson(const Cell& cell, const CellOutcome& o) {
  const Tally& b = o.blinkml;
  JsonObject j;
  j.Str("cell", cell.Name())
      .Str("model", cell.model)
      .Str("regime", cell.regime)
      .Str("stats_method", StatsMethodName(cell.config.stats_method))
      .Int("rows", cell.data->num_rows())
      .Int("dim", cell.data->dim())
      .Bool("sparse", cell.data->is_sparse())
      .Number("l2", cell.l2)
      .Int("n0", cell.config.initial_sample_size)
      .Number("epsilon", cell.contract.epsilon)
      .Number("delta", cell.contract.delta)
      .Int("seeds", cell.trials);
  b.AppendTo(&j, cell.contract.delta);
  j.Number("estimated_epsilon_mean", b.Mean(o.epsilon_hat_sum))
      .Number("initial_only_share", b.Mean(o.initial_only))
      .Number("not_converged_share", b.Mean(o.not_converged))
      .Object("flag_vs_violation",
              JsonObject()
                  .Int("satisfied_held", o.satisfied_held)
                  .Int("satisfied_violated", o.satisfied_violated)
                  .Int("unsatisfied_held", o.unsatisfied_held)
                  .Int("unsatisfied_violated", o.unsatisfied_violated));
  if (!o.baselines.empty()) {
    std::vector<JsonObject> rows;
    for (std::size_t i = 0; i < o.baselines.size(); ++i) {
      JsonObject row;
      row.Str("policy", kBaselineNames[i]);
      o.baselines[i].AppendTo(&row, cell.contract.delta);
      rows.push_back(row);
    }
    j.Array("baselines", rows);
  }
  return j;
}

}  // namespace
}  // namespace bench
}  // namespace blinkml

int main(int argc, char** argv) {
  using namespace blinkml;
  using namespace blinkml::bench;
  const BenchFlags flags =
      ParseBenchFlags(argc, argv, "BENCH_guarantee.json");
  const double scale = ScaleFromEnv();
  const int repeats = RepeatsFromEnv(0);
  const int threads =
      flags.threads > 0 ? flags.threads : ThreadPool::DefaultParallelism();

  std::string command;
  for (const char* env : {"BLINKML_SCALE", "BLINKML_REPEATS"}) {
    if (const char* value = std::getenv(env)) {
      command += std::string(env) + "=" + value + " ";
    }
  }
  for (int i = 0; i < argc; ++i) {
    command += (i > 0 ? " " : "") + std::string(argv[i]);
  }

  PrintHeader("The (epsilon, delta) guarantee against m_N on the run's pool");
  std::printf("scale=%g seeds=%s threads=%d; seed s runs config.seed = "
              "1000 + 17 s\n",
              scale, repeats > 0 ? std::to_string(repeats).c_str() : "default",
              threads);
  std::printf("%-64s %9s %7s %7s %6s %7s %7s\n", "cell", "viol/T", "eps^",
              "v", "n/N", "speedup", "secs");

  std::vector<JsonObject> cell_json;
  std::vector<std::string> failing;
  for (const Cell& cell : MakeCells(scale, repeats)) {
    WallTimer cell_timer;
    const CellOutcome o = RunCell(cell, threads);
    const Tally& b = o.blinkml;
    const bool pass = b.Pass(cell.contract.delta);
    if (!pass) failing.push_back(cell.Name());
    std::printf("%-64s %4d/%-4d %7.4f %7.4f %6.3f %6.2fx %7.1f %s\n",
                cell.Name().c_str(), b.violations, cell.trials,
                b.Mean(o.epsilon_hat_sum), b.Mean(b.v_sum),
                b.Mean(b.fraction_sum), Percentile(b.speedups, 50.0),
                cell_timer.Seconds(), pass ? "" : "FAIL");
    std::fflush(stdout);
    cell_json.push_back(CellJson(cell, o));
  }
  std::printf("%zu of %zu cells fail\n", failing.size(), cell_json.size());

  if (flags.json) {
    JsonObject root;
    root.Str("bench", "guarantee")
        .Str("command", command)
        .Object("machine", MachineJson(threads))
        .Number("scale", scale)
        .Str("seeds", "config.seed = 1000 + 17 s, s = 0 .. seeds - 1")
        .Number("false_alarm_rate", kFalseAlarm)
        .Number("confidence", kConfidence)
        .Strings("failing_cells", failing)
        .Array("cells", cell_json);
    if (!WriteBenchFile(flags.json_path, root.ToString())) return 1;
  }
  return 0;
}
