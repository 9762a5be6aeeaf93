// Deterministic pseudo-random number generation for the whole library.
//
// All stochastic behaviour in bundlemine (data generation, sampled adoption,
// random item subsets) flows through `Rng`, a PCG32 generator (O'Neill 2014).
// PCG32 is small, fast, statistically strong for simulation purposes, and —
// unlike std::mt19937 seeded via seed_seq — produces identical streams on every
// platform, which keeps tests and benchmark tables reproducible.

#ifndef BUNDLEMINE_UTIL_RNG_H_
#define BUNDLEMINE_UTIL_RNG_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace bundlemine {

/// PCG32 pseudo-random generator with convenience distributions.
class Rng {
 public:
  /// Creates a generator from a seed; the same seed always yields the same
  /// stream. `stream` selects one of 2^63 independent sequences.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
               std::uint64_t stream = 0xda3e39cb94b95bdbULL)
      : state_(0), inc_((stream << 1u) | 1u) {
    NextU32();
    state_ += seed;
    NextU32();
  }

  /// Uniform 32-bit value.
  std::uint32_t NextU32() {
    std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    std::uint32_t xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Uniform integer in [0, bound) using Lemire-style rejection.
  std::uint32_t UniformU32(std::uint32_t bound) {
    BM_CHECK_GT(bound, 0u);
    std::uint32_t threshold = (-bound) % bound;
    while (true) {
      std::uint32_t r = NextU32();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  int UniformInt(int lo, int hi) {
    BM_CHECK_LE(lo, hi);
    return lo + static_cast<int>(
                    UniformU32(static_cast<std::uint32_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(NextU32()) * (1.0 / 4294967296.0);
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return lo + (hi - lo) * UniformDouble();
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Standard normal via Box–Muller (one value per call; no caching so the
  /// stream consumption per call is fixed at two uniforms).
  double Normal(double mean = 0.0, double stddev = 1.0) {
    double u1 = UniformDouble();
    double u2 = UniformDouble();
    if (u1 < 1e-300) u1 = 1e-300;
    double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    return mean + stddev * z;
  }

  /// Samples an index in [0, weights.size()) proportionally to `weights`.
  /// Weights must be non-negative with a positive sum.
  std::size_t Categorical(const std::vector<double>& weights) {
    double total = 0.0;
    for (double w : weights) {
      BM_CHECK_GE(w, 0.0);
      total += w;
    }
    BM_CHECK_GT(total, 0.0);
    double target = UniformDouble() * total;
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      acc += weights[i];
      if (target < acc) return i;
    }
    return weights.size() - 1;
  }

  /// Zipf-distributed rank in [0, n) with exponent s, sampled by inverse CDF
  /// over precomputed cumulative weights is O(n); this rejection-free variant
  /// builds the CDF lazily per instance — callers needing many samples should
  /// use `ZipfSampler` below.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (std::size_t i = v->size() - 1; i > 0; --i) {
      std::size_t j = UniformU32(static_cast<std::uint32_t>(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

/// Precomputed-CDF Zipf sampler over ranks [0, n): P(r) ∝ 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    BM_CHECK_GT(n, 0u);
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = acc;
    }
    for (std::size_t r = 0; r < n; ++r) cdf_[r] /= acc;
  }

  /// Draws one rank.
  std::size_t Sample(Rng* rng) const {
    double u = rng->UniformDouble();
    // Binary search over the CDF.
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_UTIL_RNG_H_
