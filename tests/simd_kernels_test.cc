// Scalar-vs-SIMD bit-identity coverage for the vectorized pricing kernels
// (every dispatch width compiled into this binary), plus semantic checks of
// the kernels against straightforward reference loops, and the shared
// exp/logistic primitives against libm.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/offer_graph.h"
#include "data/generator.h"
#include "mining/bitset.h"
#include "pricing/price_grid.h"
#include "pricing/pricing_kernels.h"
#include "util/simd.h"

namespace bundlemine {
namespace {

using kernels::ExactStepResult;
using kernels::MixedSigmoidResult;

// Random audience values: mostly positive with some zero/negative entries,
// spanning several magnitudes so grid boundaries and below-grid paths hit.
std::vector<double> RandomValues(std::mt19937_64& rng, std::size_t n,
                                 bool allow_nonpositive) {
  std::uniform_real_distribution<double> mag(0.01, 40.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) {
    x = mag(rng);
    if (allow_nonpositive && coin(rng) < 0.12) {
      x = coin(rng) < 0.5 ? 0.0 : -x;
    }
  }
  return v;
}

TEST(SimdExpTest, MatchesLibmClosely) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(-700.0, 700.0);
  for (int i = 0; i < 20000; ++i) {
    const double x = dist(rng);
    const double got = simd::ExpScalar(x);
    const double want = std::exp(x);
    EXPECT_NEAR(got, want, std::abs(want) * 5e-14) << "x=" << x;
  }
}

TEST(SimdExpTest, ExactAnchors) {
  EXPECT_EQ(simd::ExpScalar(0.0), 1.0);
  EXPECT_EQ(simd::ExpScalar(-0.0), 1.0);
  EXPECT_EQ(simd::ExpScalar(-800.0), 0.0);
  EXPECT_EQ(simd::ExpScalar(-1e18), 0.0);
  EXPECT_EQ(simd::ExpScalar(800.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(simd::ExpScalar(1e18), std::numeric_limits<double>::infinity());
}

TEST(SimdLogisticTest, ExactLimitsAndMidpoint) {
  EXPECT_EQ(simd::LogisticScalar(0.0), 0.5);
  EXPECT_EQ(simd::LogisticScalar(1e12), 1.0);
  EXPECT_EQ(simd::LogisticScalar(-1e12), 0.0);
  // Symmetry within rounding: σ(x) + σ(-x) = 1.
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> dist(-40.0, 40.0);
  for (int i = 0; i < 2000; ++i) {
    const double x = dist(rng);
    EXPECT_NEAR(simd::LogisticScalar(x) + simd::LogisticScalar(-x), 1.0,
                1e-15);
  }
}

// Reference: the historical scalar exact-step scan.
ExactStepResult ReferenceExactStep(const std::vector<double>& sorted_desc) {
  ExactStepResult best;
  for (std::size_t j = 0; j < sorted_desc.size(); ++j) {
    const double v = sorted_desc[j];
    if (v <= 0.0) break;
    const double revenue = v * static_cast<double>(j + 1);
    if (revenue > best.revenue) {
      best.revenue = revenue;
      best.price = v;
      best.buyers = static_cast<double>(j + 1);
    }
  }
  return best;
}

TEST(KernelBitIdentityTest, ExactStepBest) {
  std::mt19937_64 rng(101);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = static_cast<std::size_t>(trial % 70);
    std::vector<double> v = RandomValues(rng, n, /*allow_nonpositive=*/true);
    std::sort(v.begin(), v.end(), std::greater<double>());
    // Inject ties so the first-index tie-break is exercised.
    if (n > 4) v[2] = v[1];
    std::sort(v.begin(), v.end(), std::greater<double>());

    const ExactStepResult ref = ReferenceExactStep(v);
    const ExactStepResult sc = kernels::scalar::ExactStepBest(v.data(), n);
    EXPECT_EQ(sc.revenue, ref.revenue);
    EXPECT_EQ(sc.price, ref.price);
    EXPECT_EQ(sc.buyers, ref.buyers);
    if (kernels::WideAvailable()) {
      const ExactStepResult wd = kernels::wide::ExactStepBest(v.data(), n);
      EXPECT_EQ(wd.revenue, sc.revenue);
      EXPECT_EQ(wd.price, sc.price);
      EXPECT_EQ(wd.buyers, sc.buyers);
    }
  }
}

TEST(KernelBitIdentityTest, MaxValue) {
  std::mt19937_64 rng(202);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(trial % 97);
    const std::vector<double> v =
        RandomValues(rng, n, /*allow_nonpositive=*/true);
    double ref = 0.0;
    for (double x : v) ref = std::max(ref, x);
    EXPECT_EQ(kernels::scalar::MaxValue(v.data(), n), ref);
    if (kernels::WideAvailable()) {
      EXPECT_EQ(kernels::wide::MaxValue(v.data(), n), ref);
    }
  }
}

TEST(KernelBitIdentityTest, ComputeBucketsMatchesUniformPriceView) {
  std::mt19937_64 rng(303);
  std::uniform_real_distribution<double> alpha_dist(0.5, 1.6);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(20 + trial % 200);
    std::vector<double> v = RandomValues(rng, n, /*allow_nonpositive=*/true);
    const double alpha = alpha_dist(rng);
    const double max_w = kernels::scalar::MaxValue(v.data(), n) * alpha;
    const int levels = 1 + trial % 120;
    UniformPriceView grid(max_w, levels);
    if (grid.empty()) continue;
    // Nudge a few values onto exact grid levels to stress the tolerance.
    for (std::size_t i = 0; i + 7 < n; i += 7) {
      v[i] = grid.level(static_cast<int>(i) % grid.size()) / alpha;
    }
    const double step = max_w / levels;
    std::vector<std::int32_t> sc(n), wd(n);
    kernels::scalar::ComputeBuckets(v.data(), n, alpha, max_w, grid.size(),
                                    step, sc.data());
    for (std::size_t i = 0; i < n; ++i) {
      if (v[i] <= 0.0) {
        EXPECT_EQ(sc[i], -2);
      } else {
        EXPECT_EQ(sc[i], grid.BucketFor(alpha * v[i]))
            << "i=" << i << " v=" << v[i] << " alpha=" << alpha;
      }
    }
    if (kernels::WideAvailable()) {
      kernels::wide::ComputeBuckets(v.data(), n, alpha, max_w, grid.size(),
                                    step, wd.data());
      EXPECT_EQ(sc, wd);
    }
  }
}

TEST(KernelBitIdentityTest, SigmoidAdoptionSum) {
  std::mt19937_64 rng(404);
  std::uniform_real_distribution<double> gamma_dist(0.05, 50.0);
  std::uniform_real_distribution<double> price_dist(0.1, 30.0);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(trial % 133);
    const std::vector<double> v =
        RandomValues(rng, n, /*allow_nonpositive=*/false);
    const std::vector<double> wt =
        RandomValues(rng, n, /*allow_nonpositive=*/false);
    const double gamma = gamma_dist(rng);
    const double p = price_dist(rng);
    const double alpha = 0.9;
    const double eps = 1e-6;
    for (const double* weights : {static_cast<const double*>(nullptr),
                                  wt.data()}) {
      const double sc = kernels::scalar::SigmoidAdoptionSum(
          v.data(), weights, n, gamma, alpha, eps, p);
      // Tolerance check against a naive ordering.
      double naive = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double pr =
            simd::LogisticScalar(gamma * ((alpha * v[i] - p) + eps));
        naive += (weights != nullptr ? weights[i] : 1.0) * pr;
      }
      EXPECT_NEAR(sc, naive, 1e-9 * (1.0 + std::abs(naive)));
      if (kernels::WideAvailable()) {
        const double wd = kernels::wide::SigmoidAdoptionSum(
            v.data(), weights, n, gamma, alpha, eps, p);
        EXPECT_EQ(sc, wd) << "n=" << n;
      }
    }
  }
}

TEST(KernelBitIdentityTest, MixedThresholds) {
  std::mt19937_64 rng(505);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(trial % 111);
    const std::vector<double> r1 =
        RandomValues(rng, n, /*allow_nonpositive=*/true);
    const std::vector<double> r2 =
        RandomValues(rng, n, /*allow_nonpositive=*/true);
    const double a1 = 0.95, a2 = 1.05, ab = 1.2, p1 = 3.0, p2 = 5.0;
    std::vector<double> sc(n), wd(n);
    kernels::scalar::MixedThresholds(r1.data(), r2.data(), n, a1, a2, ab, p1,
                                     p2, sc.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double want = std::min(
          ab * (r1[i] + r2[i]),
          std::min(p1 + a2 * r2[i], p2 + a1 * r1[i]));
      EXPECT_EQ(sc[i], want);
    }
    if (kernels::WideAvailable()) {
      kernels::wide::MixedThresholds(r1.data(), r2.data(), n, a1, a2, ab, p1,
                                     p2, wd.data());
      EXPECT_EQ(sc, wd);
    }
  }
}

TEST(KernelBitIdentityTest, MixedEffectiveColumnsAndSigmoidEval) {
  std::mt19937_64 rng(606);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n = static_cast<std::size_t>(trial % 90);
    const std::vector<double> r1 =
        RandomValues(rng, n, /*allow_nonpositive=*/true);
    const std::vector<double> r2 =
        RandomValues(rng, n, /*allow_nonpositive=*/true);
    const std::vector<double> base =
        RandomValues(rng, n, /*allow_nonpositive=*/false);
    const double a1 = 1.0, a2 = 0.8, ab = 1.3, p1 = 4.0, p2 = 6.0;
    std::vector<double> aw1s(n), aw2s(n), awbs(n);
    std::vector<double> aw1w(n), aw2w(n), awbw(n);
    kernels::scalar::MixedEffectiveColumns(r1.data(), r2.data(), n, a1, a2,
                                           ab, aw1s.data(), aw2s.data(),
                                           awbs.data());
    if (kernels::WideAvailable()) {
      kernels::wide::MixedEffectiveColumns(r1.data(), r2.data(), n, a1, a2,
                                           ab, aw1w.data(), aw2w.data(),
                                           awbw.data());
      EXPECT_EQ(aw1s, aw1w);
      EXPECT_EQ(aw2s, aw2w);
      EXPECT_EQ(awbs, awbw);
    }
    for (bool product : {false, true}) {
      const double p = 7.3;
      const MixedSigmoidResult sc = kernels::scalar::MixedSigmoidEval(
          aw1s.data(), aw2s.data(), awbs.data(), base.data(), n, p, p1, p2,
          /*gamma=*/2.5, /*eps=*/1e-6, product);
      if (kernels::WideAvailable()) {
        const MixedSigmoidResult wd = kernels::wide::MixedSigmoidEval(
            aw1s.data(), aw2s.data(), awbs.data(), base.data(), n, p, p1, p2,
            /*gamma=*/2.5, /*eps=*/1e-6, product);
        EXPECT_EQ(sc.gain, wd.gain) << "n=" << n << " product=" << product;
        EXPECT_EQ(sc.adopters, wd.adopters);
      }
    }
  }
}

// Reference support join: true when the two sorted audiences share a
// consumer with positive WTP on both sides.
bool SupportsIntersect(const SparseWtpVector& a, const SparseWtpVector& b) {
  const auto& ea = a.entries();
  const auto& eb = b.entries();
  std::size_t i = 0, j = 0;
  while (i < ea.size() && j < eb.size()) {
    if (ea[i].id == eb[j].id) {
      if (ea[i].w > 0.0 && eb[j].w > 0.0) return true;
      ++i;
      ++j;
    } else if (ea[i].id < eb[j].id) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

// The bitset support join the bundlers' co-interest pruning runs must agree
// with the sorted-merge reference on random sparse vectors (including
// zero/negative entries, which do not count as support).
TEST(SupportJoinTest, BitsetMatchesSortedMerge) {
  std::mt19937_64 rng(808);
  std::uniform_real_distribution<double> mag(0.01, 10.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const std::size_t num_users = 200;
  auto random_vec = [&](double density) {
    std::vector<WtpEntry> entries;
    for (std::size_t u = 0; u < num_users; ++u) {
      if (coin(rng) < density) {
        double w = mag(rng);
        if (coin(rng) < 0.15) w = coin(rng) < 0.5 ? 0.0 : -w;
        entries.push_back(WtpEntry{static_cast<std::int32_t>(u), w});
      }
    }
    return SparseWtpVector(std::move(entries));
  };
  auto support_of = [&](const SparseWtpVector& v) {
    Bitset s(num_users);
    for (const WtpEntry& e : v.entries()) {
      if (e.w > 0.0) s.Set(static_cast<std::size_t>(e.id));
    }
    return s;
  };
  int intersecting = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const double density = trial % 3 == 0 ? 0.01 : 0.1;
    const SparseWtpVector a = random_vec(density);
    const SparseWtpVector b = random_vec(density);
    const bool sparse = SupportsIntersect(a, b);
    const bool bits = support_of(a).Intersects(support_of(b));
    EXPECT_EQ(sparse, bits);
    intersecting += sparse ? 1 : 0;
  }
  // Both outcomes must actually occur for the parity check to mean anything.
  EXPECT_GT(intersecting, 0);
  EXPECT_LT(intersecting, 300);
}

// An offer graph on dense SoA columns must evaluate every candidate pair
// bit-identically to one on sparse sorted merges, through a fixed sequence
// of merges, for every strategy/model combination. Each step merges the
// best-gain pair that grows the newest offer, or the best-gain pair overall
// when none does, so the sequence reaches merges of merged offers.
TEST(DenseColumnsTest, EvaluatePairIdenticalToSparsePath) {
  RatingsDataset data = GenerateAmazonLike(TinyProfile(2024));
  const WtpMatrix wtp = WtpMatrix::FromRatings(data, 1.25);
  struct Case {
    BundlingStrategy strategy;
    bool sigmoid;
  };
  const Case cases[] = {
      {BundlingStrategy::kPure, false},
      {BundlingStrategy::kPure, true},
      {BundlingStrategy::kMixed, false},
      {BundlingStrategy::kMixed, true},
  };
  constexpr int kMerges = 12;
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << "strategy=" << static_cast<int>(c.strategy)
                 << " sigmoid=" << c.sigmoid);
    BundleConfigProblem problem;
    problem.wtp = &wtp;
    problem.theta = 0.2;
    problem.strategy = c.strategy;
    problem.adoption = c.sigmoid ? AdoptionModel::Sigmoid(8.0, 1.0, 1e-6)
                                 : AdoptionModel::Step();
    problem.price_levels = 50;

    PricingWorkspace ws;
    OfferGraph dense(problem, /*dense_columns=*/true, &ws);
    OfferGraph sparse(problem, /*dense_columns=*/false, &ws);
    ASSERT_TRUE(dense.dense());
    ASSERT_FALSE(sparse.dense());
    int merges = 0;
    int newest = -1;
    for (; merges < kMerges; ++merges) {
      std::optional<PairOutcome> best;
      std::optional<PairOutcome> best_growing;
      const int n = static_cast<int>(dense.offers().size());
      for (int a = 0; a < n; ++a) {
        if (!dense.offer(a).alive) continue;
        for (int b = a + 1; b < n; ++b) {
          if (!dense.offer(b).alive) continue;
          PairOutcome d;
          PairOutcome s;
          const bool dense_gains = dense.EvaluatePair(a, b, &d, &ws);
          ASSERT_EQ(dense_gains, sparse.EvaluatePair(a, b, &s, &ws))
              << "pair " << a << "," << b;
          if (!dense_gains) continue;
          EXPECT_EQ(d.gain, s.gain);
          EXPECT_EQ(d.price, s.price);
          EXPECT_EQ(d.revenue, s.revenue);
          EXPECT_EQ(d.buyers, s.buyers);
          if (!best || d.gain > best->gain) best = d;
          if ((a == newest || b == newest) &&
              (!best_growing || d.gain > best_growing->gain)) {
            best_growing = d;
          }
        }
      }
      if (best_growing) best = best_growing;
      if (!best) break;
      newest = dense.Merge(*best);
      EXPECT_EQ(newest, sparse.Merge(*best));
    }
    // Evaluations over merged offers' WTP and payment columns are covered
    // only once the sequence merges a merged offer.
    EXPECT_EQ(merges, kMerges);
    int multi_level = 0;
    for (const Offer& o : dense.offers()) {
      multi_level += o.child1 >= wtp.num_items() ? 1 : 0;
      multi_level += o.child2 >= wtp.num_items() ? 1 : 0;
    }
    EXPECT_GT(multi_level, 0);
    EXPECT_EQ(dense.TotalRevenue(), sparse.TotalRevenue());
  }
}

TEST(KernelDispatchTest, ForceScalarRoutesToScalar) {
  std::mt19937_64 rng(707);
  std::vector<double> v = RandomValues(rng, 37, /*allow_nonpositive=*/false);
  std::sort(v.begin(), v.end(), std::greater<double>());
  simd::ForceScalarKernels(true);
  EXPECT_FALSE(simd::UseWideKernels());
  const ExactStepResult forced = kernels::ExactStepBest(v.data(), v.size());
  simd::ForceScalarKernels(false);
  const ExactStepResult sc = kernels::scalar::ExactStepBest(v.data(), v.size());
  EXPECT_EQ(forced.revenue, sc.revenue);
  EXPECT_EQ(forced.price, sc.price);
  EXPECT_EQ(forced.buyers, sc.buyers);
  if (kernels::WideAvailable()) {
    EXPECT_TRUE(simd::UseWideKernels());
    const ExactStepResult dd = kernels::ExactStepBest(v.data(), v.size());
    const ExactStepResult wd = kernels::wide::ExactStepBest(v.data(), v.size());
    EXPECT_EQ(dd.revenue, wd.revenue);
    // Wide and scalar agree bitwise anyway; the routing check is about
    // exercising both entry points, the identity checks above do the rest.
    EXPECT_EQ(wd.revenue, sc.revenue);
  }
}

}  // namespace
}  // namespace bundlemine
