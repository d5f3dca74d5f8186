// Synthetic workload generators mirroring the paper's six datasets.
//
// The real datasets (Gas, Power, Criteo, HIGGS, MNIST8M, Yelp) are multi-GB
// downloads unavailable offline, so each generator produces a synthetic
// equivalent with the same *shape*: matched feature dimension (scaled for
// the two extreme-dimensional sparse sets), matched task, labels drawn from
// a ground-truth model of the same family plus noise, and realistic feature
// structure (correlated sensors, heavy-tailed document lengths, hashed
// categorical one-hots). BlinkML's guarantees are model-relative — they
// depend on MLE asymptotics, dimension, and conditioning, not on where the
// bytes came from — so these preserve the behaviours the evaluation
// measures.
//
// All generators are deterministic given the seed.

#ifndef BLINKML_DATA_GENERATORS_H_
#define BLINKML_DATA_GENERATORS_H_

#include <cstdint>

#include "data/dataset.h"

namespace blinkml {

/// Gas-sensor-like regression (paper: 4.2M x 57 dense).
/// Correlated "sensor channels": an AR(1)-mixed Gaussian design with a dense
/// ground-truth linear model and moderate observation noise.
Dataset MakeGasLike(std::int64_t n, std::uint64_t seed, std::int64_t dim = 57);

/// Household-power-like regression (paper: 2.1M x 114 dense).
/// Stronger feature correlation (block structure) and heteroscedastic noise,
/// which makes the parameter covariance less isotropic than Gas.
Dataset MakePowerLike(std::int64_t n, std::uint64_t seed,
                      std::int64_t dim = 114);

/// HIGGS-like binary classification (paper: 11M x 28 dense).
/// Labels from a ground-truth logistic model with Bayes error ~ 25-30%
/// (HIGGS is a famously hard set; full-data test accuracy ~ 0.76 AUC-ish).
Dataset MakeHiggsLike(std::int64_t n, std::uint64_t seed,
                      std::int64_t dim = 28);

/// Criteo-like click-through binary classification (paper: 45.8M x 998,922
/// sparse). Hashed categorical one-hots with a power-law column popularity
/// plus a handful of dense numeric counters; ~3% positive rate like CTR
/// data. `dim` defaults to 20,000, scaled down from ~1M to fit one
/// machine; each row keeps `nnz_per_row` non-zeros, the per-example
/// dimension that keeps the paper's Criteo runs inside the asymptotic
/// regime.
Dataset MakeCriteoLike(std::int64_t n, std::uint64_t seed,
                       std::int64_t dim = 20000,
                       std::int64_t nnz_per_row = 39);

/// MNIST-like 10-class dense classification (paper: 8M x 784 dense).
/// Class-conditional Gaussian "digit prototypes" on a pixel grid with
/// additive noise; pixel intensities clipped to [0, 1]. `dim` must be a
/// perfect square (default 784 = 28x28).
Dataset MakeMnistLike(std::int64_t n, std::uint64_t seed,
                      std::int64_t dim = 784, std::int64_t num_classes = 10);

/// Yelp-like 5-class review classification (paper: 5.3M x 100,000 sparse
/// bag-of-words). Zipfian vocabulary, Poisson document lengths, class-tilted
/// word frequencies. `dim` defaults to 5,000 (scaled from 100K).
Dataset MakeYelpLike(std::int64_t n, std::uint64_t seed,
                     std::int64_t dim = 5000);

/// Plain synthetic logistic-regression data with an isotropic Gaussian
/// design — the workhorse for unit tests and the dimension-sweep benchmark
/// (paper Figure 8 uses Criteo restricted to the first d features; we vary
/// d directly). `sparsity` in (0, 1] keeps that fraction of entries.
Dataset MakeSyntheticLogistic(std::int64_t n, std::int64_t dim,
                              std::uint64_t seed, double sparsity = 1.0,
                              double noise = 0.1);

/// Plain synthetic linear-regression data (dense Gaussian design).
Dataset MakeSyntheticLinear(std::int64_t n, std::int64_t dim,
                            std::uint64_t seed, double noise = 0.5);

/// Plain synthetic multiclass data (Gaussian class centroids).
Dataset MakeSyntheticMulticlass(std::int64_t n, std::int64_t dim,
                                std::int64_t num_classes, std::uint64_t seed,
                                double spread = 1.0);

/// Low-rank-plus-noise data for PPCA: x = W z + eps with W of the given
/// rank, matching the PPCA generative model exactly.
Dataset MakeSyntheticLowRank(std::int64_t n, std::int64_t dim,
                             std::int64_t rank, std::uint64_t seed,
                             double noise = 0.3);

/// Count-data for Poisson regression: y ~ Poisson(exp(theta*^T x)) with a
/// Gaussian design scaled so rates stay in a realistic range (roughly
/// 0.1 - 50 events). `rate_scale` shifts the base rate.
Dataset MakeSyntheticCounts(std::int64_t n, std::int64_t dim,
                            std::uint64_t seed, double rate_scale = 1.0);

}  // namespace blinkml

#endif  // BLINKML_DATA_GENERATORS_H_
