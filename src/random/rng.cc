#include "random/rng.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace blinkml {

namespace {

// SplitMix64: seeds the xoshiro state; also used by Split().
std::uint64_t SplitMix64(std::uint64_t* x) {
  std::uint64_t z = (*x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// The chosen set of Floyd's sampler for k picks: open addressing over at
// least 2k slots, flat in memory, with no per-entry allocation.
class IndexSet {
 public:
  explicit IndexSet(std::int64_t k) {
    std::size_t slots = 2;
    while (slots < 2 * static_cast<std::size_t>(k)) {
      slots *= 2;
      --shift_;
    }
    slots_.assign(slots, -1);
  }

  /// Adds v >= 0; false when it was already present.
  bool Insert(std::int64_t v) {
    // Fibonacci hashing: the top bits of v times 2^64 / phi.
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(v) * 0x9E3779B97F4A7C15ull) >> shift_);
    for (;; i = (i + 1) & mask) {
      std::int64_t& slot = slots_[i];
      if (slot == v) return false;
      if (slot < 0) {
        slot = v;
        return true;
      }
    }
  }

 private:
  std::vector<std::int64_t> slots_;  // -1 marks a free slot
  int shift_ = 63;
};

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(&s);
}

std::uint64_t Rng::Next() {
  const std::uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // Top 53 bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  BLINKML_CHECK_LE(lo, hi);
  return lo + (hi - lo) * Uniform();
}

std::uint64_t Rng::UniformInt(std::uint64_t n) {
  BLINKML_CHECK_GT(n, 0u);
  // Rejection sampling over the largest multiple of n below 2^64.
  const std::uint64_t threshold = (0 - n) % n;
  while (true) {
    const std::uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

double Rng::Normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  // Marsaglia polar method.
  while (true) {
    const double u = 2.0 * Uniform() - 1.0;
    const double v = 2.0 * Uniform() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      const double factor = std::sqrt(-2.0 * std::log(s) / s);
      spare_normal_ = v * factor;
      has_spare_ = true;
      return u * factor;
    }
  }
}

double Rng::Normal(double mean, double stddev) {
  BLINKML_CHECK_GE(stddev, 0.0);
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) {
  BLINKML_CHECK(p >= 0.0 && p <= 1.0);
  return Uniform() < p;
}

std::size_t Rng::Categorical(const std::vector<double>& weights) {
  BLINKML_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    BLINKML_CHECK_GE(w, 0.0);
    total += w;
  }
  BLINKML_CHECK_GT(total, 0.0);
  double u = Uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u < 0.0) return i;
  }
  return weights.size() - 1;
}

long Rng::Poisson(double lambda) {
  BLINKML_CHECK_GE(lambda, 0.0);
  if (lambda == 0.0) return 0;
  if (lambda > 64.0) {
    // Normal approximation with continuity correction; adequate for the
    // synthetic workload generators which only need plausible count shapes.
    const double x = Normal(lambda, std::sqrt(lambda));
    return std::max(0L, std::lround(x));
  }
  const double limit = std::exp(-lambda);
  long k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= Uniform();
  } while (p > limit);
  return k - 1;
}

void Rng::FillNormal(Vector* out) {
  FillNormal(out->data(), out->size());
}

void Rng::FillNormal(double* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = Normal();
}

Rng Rng::Split() {
  // A fresh stream seeded from two outputs of this one.
  const std::uint64_t a = Next();
  const std::uint64_t b = Next();
  return Rng(a ^ Rotl(b, 32) ^ 0xA3EC647659359ACDull);
}

std::vector<std::int64_t> RandomPermutation(std::int64_t n, Rng* rng) {
  BLINKML_CHECK_GE(n, 0);
  std::vector<std::int64_t> perm(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  for (std::int64_t i = n - 1; i > 0; --i) {
    const std::int64_t j = static_cast<std::int64_t>(
        rng->UniformInt(static_cast<std::uint64_t>(i + 1)));
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(j)]);
  }
  return perm;
}

std::vector<std::int64_t> SampleWithoutReplacement(std::int64_t n,
                                                   std::int64_t k, Rng* rng) {
  BLINKML_CHECK_GE(n, 0);
  BLINKML_CHECK(k >= 0 && k <= n);
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
  // Sparse regime: Floyd's algorithm, O(k) memory.
  IndexSet chosen(k);
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(k));
  for (std::int64_t j = n - k; j < n; ++j) {
    const std::int64_t t = static_cast<std::int64_t>(
        rng->UniformInt(static_cast<std::uint64_t>(j + 1)));
    if (chosen.Insert(t)) {
      out.push_back(t);
    } else {
      chosen.Insert(j);
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

std::vector<Rng> SplitRngPerChunk(const ChunkLayout& layout, Rng* base) {
  std::vector<Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(layout.num_chunks));
  for (ParallelIndex c = 0; c < layout.num_chunks; ++c) {
    rngs.push_back(base->Split());
  }
  return rngs;
}

}  // namespace blinkml
