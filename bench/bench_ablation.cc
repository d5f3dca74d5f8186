// Ablation study for five of the implementation's design choices.
// Not a paper figure; quantifies what each optimization buys.
//
//  1. Sampling-by-scaling vs re-drawing per candidate n (paper Sec. 4.3).
//  2. Lazy Gram-factor sampler vs materialized dense factor.
//  3. Statistics sample size (n_s) vs bound tightness and cost.
//  4. Monte-Carlo budget k vs bound tightness and cost.
//  5. Sampler rank truncation vs bound drift.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/accuracy_estimator.h"
#include "core/statistics.h"
#include "data/generators.h"
#include "models/logistic_regression.h"
#include "models/trainer.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace blinkml {
namespace bench {
namespace {

struct Fixture {
  LogisticRegressionSpec spec{1e-3};
  Dataset data;
  Dataset holdout;
  Dataset pool;
  Dataset d0;
  Vector theta0;
  Dataset::Index n0 = 10'000;
};

Fixture MakeFixture(double scale) {
  Fixture f;
  const std::int64_t rows =
      std::max<std::int64_t>(80'000,
                             static_cast<std::int64_t>(scale * 200'000));
  f.data = MakeCriteoLike(rows, /*seed=*/55, /*dim=*/5000,
                          /*nnz_per_row=*/30);
  Rng rng(1);
  auto [holdout, pool] = f.data.Split(0.02, &rng);
  f.holdout = std::move(holdout);
  f.pool = std::move(pool);
  f.d0 = f.pool.SampleRows(f.n0, &rng);
  const auto m0 = ModelTrainer().Train(f.spec, f.d0);
  BLINKML_CHECK_MSG(m0.ok(), "fixture training failed");
  f.theta0 = m0->theta;
  return f;
}

ParamSampler StatsWith(const Fixture& f, Dataset::Index n_s,
                       Matrix::Index max_rank) {
  StatsOptions options;
  options.stats_sample_size = n_s;
  options.max_rank = max_rank;
  Rng rng(2);
  auto stats = ComputeStatistics(f.spec, f.theta0, f.d0, options, &rng);
  BLINKML_CHECK_MSG(stats.ok(), "stats failed");
  return std::move(*stats);
}

void ScalingTrickAblation(const Fixture& f) {
  PrintHeader("Ablation 1 — sampling by scaling (paper Sec 4.3)");
  const ParamSampler sampler = StatsWith(f, 1024, 512);
  const int k = 192;
  const int candidates = 18;  // ~log2(N - n0) binary-search evaluations
  // With the trick: draw unscaled once, rescale per candidate.
  Rng rng(3);
  WallTimer with_trick;
  {
    std::vector<Vector> unscaled;
    for (int i = 0; i < k; ++i) unscaled.push_back(sampler.Draw(1.0, &rng));
    double sink = 0.0;
    for (int c = 0; c < candidates; ++c) {
      const double scale = 1.0 / (c + 2.0);
      for (const auto& u : unscaled) sink += scale * u[0];
    }
    if (sink == 12345.0) std::printf("!");  // keep the loop alive
  }
  const double trick_seconds = with_trick.Seconds();
  // Without: fresh draws for every candidate.
  WallTimer without_trick;
  {
    double sink = 0.0;
    for (int c = 0; c < candidates; ++c) {
      for (int i = 0; i < k; ++i) sink += sampler.Draw(1.0, &rng)[0];
    }
    if (sink == 12345.0) std::printf("!");
  }
  const double naive_seconds = without_trick.Seconds();
  std::printf("  draw-once-and-rescale: %s\n",
              HumanSeconds(trick_seconds).c_str());
  std::printf("  re-draw per candidate: %s  (%.1fx slower)\n",
              HumanSeconds(naive_seconds).c_str(),
              naive_seconds / std::max(trick_seconds, 1e-9));
}

void SamplerBackendAblation(const Fixture& f) {
  PrintHeader("Ablation 2 — lazy Gram factor vs dense factor");
  const ParamSampler lazy = StatsWith(f, 1024, 512);
  // Dense factor materialization cost + per-draw cost comparison.
  WallTimer materialize;
  const auto cov_status = lazy.DenseCovariance();
  const double dense_feasible = cov_status.ok() ? 1.0 : 0.0;
  std::printf("  parameter dim p = %lld, factor rank r = %lld\n",
              static_cast<long long>(lazy.dim()),
              static_cast<long long>(lazy.rank()));
  std::printf("  dense p x p covariance materialization: %s%s\n",
              cov_status.ok() ? HumanSeconds(materialize.Seconds()).c_str()
                              : "refused (guarded)",
              dense_feasible > 0 ? "" : " — the lazy path avoids O(p^2)");
  Rng rng(4);
  WallTimer draw_timer;
  const int draws = 256;
  double sink = 0.0;
  for (int i = 0; i < draws; ++i) sink += lazy.Draw(1.0, &rng)[0];
  if (sink == 12345.0) std::printf("!");
  std::printf("  lazy draws: %d in %s (%.2fms each)\n", draws,
              HumanSeconds(draw_timer.Seconds()).c_str(),
              1e3 * draw_timer.Seconds() / draws);
}

void StatsSampleAblation(const Fixture& f) {
  PrintHeader("Ablation 3 — statistics sample size n_s");
  PrintRow({"n_s", "stats time", "eps0 estimate"}, {8, 12, 14});
  AccuracyOptions acc;
  acc.num_samples = 256;
  for (const Dataset::Index n_s : {128, 256, 512, 1024, 2048}) {
    WallTimer timer;
    const ParamSampler sampler = StatsWith(f, n_s, 0);
    const double stats_seconds = timer.Seconds();
    Rng rng(5);
    const auto est =
        EstimateAccuracy(f.spec, f.theta0, f.n0, f.pool.num_rows(), sampler,
                         f.holdout, acc, &rng);
    PrintRow({WithThousands(n_s), HumanSeconds(stats_seconds),
              est.ok() ? StrFormat("%.4f", est->epsilon)
                       : std::string("FAILED")},
             {8, 12, 14});
  }
  std::printf("(larger n_s: more captured gradient-covariance rank, more "
              "cost; the bound stabilizes once\nn_s covers the dominant "
              "directions)\n");
}

void MonteCarloAblation(const Fixture& f) {
  PrintHeader("Ablation 4 — Monte-Carlo budget k");
  const ParamSampler sampler = StatsWith(f, 1024, 512);
  PrintRow({"k", "estimate time", "eps0", "quantile lvl"}, {8, 14, 10, 12});
  for (const int k : {32, 64, 128, 256, 512, 1024}) {
    AccuracyOptions acc;
    acc.num_samples = k;
    Rng rng(6);
    WallTimer timer;
    const auto est =
        EstimateAccuracy(f.spec, f.theta0, f.n0, f.pool.num_rows(), sampler,
                         f.holdout, acc, &rng);
    PrintRow({WithThousands(k), HumanSeconds(timer.Seconds()),
              est.ok() ? StrFormat("%.4f", est->epsilon)
                       : std::string("FAILED"),
              est.ok() ? StrFormat("%.4f", est->quantile_level)
                       : std::string("-")},
             {8, 14, 10, 12});
  }
  std::printf("(with delta=0.05 the conservative level stays clamped at "
              "the sample maximum until k is in the\nthousands — see "
              "core/conservative.h; eps0 nevertheless stabilizes quickly)\n");
}

void RankTruncationAblation(const Fixture& f) {
  PrintHeader("Ablation 5 — sampler rank truncation");
  PrintRow({"max rank", "kept rank", "dropped var", "eps0"},
           {10, 10, 12, 10});
  AccuracyOptions acc;
  acc.num_samples = 256;
  for (const Matrix::Index max_rank : {32, 64, 128, 256, 512, 0}) {
    const ParamSampler sampler = StatsWith(f, 1024, max_rank);
    Rng rng(7);
    const auto est =
        EstimateAccuracy(f.spec, f.theta0, f.n0, f.pool.num_rows(), sampler,
                         f.holdout, acc, &rng);
    PrintRow({max_rank == 0 ? "full" : WithThousands(max_rank).c_str(),
              WithThousands(sampler.rank()),
              StrFormat("%.4f", sampler.dropped_variance_fraction()),
              est.ok() ? StrFormat("%.4f", est->epsilon)
                       : std::string("FAILED")},
             {10, 10, 12, 10});
  }
  std::printf("(hard truncation drops sampler variance and deflates the "
              "bound; when the bound is the\nproduct, keep max_rank at or "
              "above the statistics sample size — the recorded dropped-\n"
              "variance fraction is the guard rail)\n");
}

}  // namespace
}  // namespace bench
}  // namespace blinkml

int main(int argc, char** argv) {
  // Shared bench flags: --threads=N caps the runtime lanes (applied via
  // bench::ConfigFor). No JSON output here — the empty default path makes
  // ParseBenchFlags warn if --json is passed.
  blinkml::bench::ParseBenchFlags(argc, argv, "");

  using namespace blinkml::bench;
  std::printf("BlinkML reproduction — ablation study (design choices)\n");
  const double scale = ScaleFromEnv();
  const auto fixture = blinkml::bench::MakeFixture(scale);
  ScalingTrickAblation(fixture);
  SamplerBackendAblation(fixture);
  StatsSampleAblation(fixture);
  MonteCarloAblation(fixture);
  RankTruncationAblation(fixture);
  return 0;
}
