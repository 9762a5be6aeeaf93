// Unit tests for the pricing layer: adoption model, price grid, single-offer
// pricer (including the paper's Table 1 worked example), and mixed pricer.

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "data/wtp_matrix.h"
#include "gtest/gtest.h"
#include "mining/bitset.h"
#include "pricing/adoption_model.h"
#include "pricing/mixed_pricer.h"
#include "pricing/offer_pricer.h"
#include "pricing/price_grid.h"
#include "pricing/pricing_workspace.h"
#include "util/rng.h"

namespace bundlemine {
namespace {

// The paper's Table 1 instance: willingness to pay for items A and B.
//   u1: A=12, B=4;  u2: A=8, B=2;  u3: A=5, B=11;  θ = −0.05.
SparseWtpVector ItemA() { return SparseWtpVector({{0, 12.0}, {1, 8.0}, {2, 5.0}}); }
SparseWtpVector ItemB() { return SparseWtpVector({{0, 4.0}, {1, 2.0}, {2, 11.0}}); }
constexpr double kTheta = -0.05;

// A singleton merge side with its standalone payment vector.
struct SideFixture {
  SparseWtpVector raw;
  SparseWtpVector payments;

  SideFixture(SparseWtpVector r, double price, const AdoptionModel& model)
      : raw(std::move(r)) {
    payments =
        MixedPricer(model, 100).BuildStandalonePayments(raw, 1.0, price);
    price_ = price;
  }

  MergeSide Side() const { return MergeSide{&raw, 1.0, price_, &payments}; }

 private:
  double price_;
};

TEST(AdoptionModel, StepSemantics) {
  AdoptionModel m = AdoptionModel::Step();
  EXPECT_DOUBLE_EQ(m.Probability(10.0, 9.0), 1.0);
  EXPECT_DOUBLE_EQ(m.Probability(10.0, 10.0), 1.0);  // Ties adopt.
  EXPECT_DOUBLE_EQ(m.Probability(10.0, 10.1), 0.0);
}

TEST(AdoptionModel, StepWithBiasShiftsThreshold) {
  AdoptionModel m = AdoptionModel::StepWithBias(1.25);
  EXPECT_DOUBLE_EQ(m.Probability(10.0, 12.5), 1.0);  // α·w = 12.5 ≥ p.
  EXPECT_DOUBLE_EQ(m.Probability(10.0, 12.6), 0.0);
}

TEST(AdoptionModel, SigmoidMidpointAndMonotonicity) {
  AdoptionModel m = AdoptionModel::Sigmoid(/*gamma=*/1.0, /*alpha=*/1.0,
                                           /*epsilon=*/0.0);
  EXPECT_NEAR(m.Probability(10.0, 10.0), 0.5, 1e-12);
  EXPECT_GT(m.Probability(10.0, 9.0), m.Probability(10.0, 10.0));
  EXPECT_GT(m.Probability(10.0, 10.0), m.Probability(10.0, 11.0));
  EXPECT_GT(m.Probability(11.0, 10.0), m.Probability(10.5, 10.0));
}

TEST(AdoptionModel, HigherGammaIsSteeper) {
  AdoptionModel soft = AdoptionModel::Sigmoid(0.1);
  AdoptionModel hard = AdoptionModel::Sigmoid(10.0);
  // One dollar below the price: the hard model rejects far more strongly.
  EXPECT_GT(soft.Probability(9.0, 10.0), hard.Probability(9.0, 10.0));
  // One dollar above: the hard model accepts far more strongly.
  EXPECT_LT(soft.Probability(11.0, 10.0), hard.Probability(11.0, 10.0));
}

TEST(AdoptionModel, HugeGammaApproachesStep) {
  AdoptionModel m = AdoptionModel::Sigmoid(1e6, 1.0, 1e-6);
  EXPECT_GT(m.Probability(10.0, 9.99), 0.999);
  EXPECT_LT(m.Probability(10.0, 10.01), 0.001);
}

TEST(AdoptionModel, AlphaBiasRaisesProbability) {
  AdoptionModel neutral = AdoptionModel::Sigmoid(1.0, 1.0);
  AdoptionModel eager = AdoptionModel::Sigmoid(1.0, 1.25);
  EXPECT_GT(eager.Probability(10.0, 10.0), neutral.Probability(10.0, 10.0));
}

TEST(AdoptionModel, SigmoidExtremesAreStable) {
  AdoptionModel m = AdoptionModel::Sigmoid(1e6);
  EXPECT_DOUBLE_EQ(m.Probability(1000.0, 0.01), 1.0);
  EXPECT_DOUBLE_EQ(m.Probability(0.0, 1000.0), 0.0);
}

// ---------------------------------------------------------------------------

TEST(PriceGrid, UniformLevels) {
  PriceGrid g = PriceGrid::Uniform(10.0, 5);
  ASSERT_EQ(g.size(), 5);
  EXPECT_DOUBLE_EQ(g.level(0), 2.0);
  EXPECT_DOUBLE_EQ(g.level(4), 10.0);
}

TEST(PriceGrid, BucketForBoundaries) {
  PriceGrid g = PriceGrid::Uniform(10.0, 5);
  EXPECT_EQ(g.BucketFor(1.99), -1);   // Below the lowest level.
  EXPECT_EQ(g.BucketFor(2.0), 0);     // Exactly on a level.
  EXPECT_EQ(g.BucketFor(3.99), 0);
  EXPECT_EQ(g.BucketFor(4.0), 1);
  EXPECT_EQ(g.BucketFor(10.0), 4);
  EXPECT_EQ(g.BucketFor(50.0), 4);    // Clamped to the top.
}

TEST(PriceGrid, ExplicitLevelsBinarySearch) {
  PriceGrid g = PriceGrid::Explicit({1.0, 5.0, 7.5});
  EXPECT_EQ(g.BucketFor(0.5), -1);
  EXPECT_EQ(g.BucketFor(1.0), 0);
  EXPECT_EQ(g.BucketFor(6.0), 1);
  EXPECT_EQ(g.BucketFor(7.5), 2);
}

TEST(PriceGrid, EmptyWhenMaxNonPositive) {
  EXPECT_TRUE(PriceGrid::Uniform(0.0, 100).empty());
  EXPECT_TRUE(PriceGrid::Uniform(-5.0, 100).empty());
}

// ---------------------------------------------------------------------------
// Single-offer pricing: Table 1 numbers with exact pricing (levels = 0).
// ---------------------------------------------------------------------------

TEST(OfferPricer, Table1ComponentA) {
  OfferPricer pricer(AdoptionModel::Step(), /*num_levels=*/0);
  PricedOffer r = pricer.PriceOffer(ItemA(), 1.0);
  EXPECT_DOUBLE_EQ(r.price, 8.0);
  EXPECT_DOUBLE_EQ(r.revenue, 16.0);
  EXPECT_DOUBLE_EQ(r.expected_buyers, 2.0);
}

TEST(OfferPricer, Table1ComponentB) {
  OfferPricer pricer(AdoptionModel::Step(), 0);
  PricedOffer r = pricer.PriceOffer(ItemB(), 1.0);
  EXPECT_DOUBLE_EQ(r.price, 11.0);
  EXPECT_DOUBLE_EQ(r.revenue, 11.0);
  EXPECT_DOUBLE_EQ(r.expected_buyers, 1.0);
}

TEST(OfferPricer, Table1PureBundle) {
  // Bundle WTPs at θ=−0.05: u1 = u3 = 15.20, u2 = 9.50 → price 15.20,
  // two buyers, revenue 30.40 (the paper's pure-bundling column).
  OfferPricer pricer(AdoptionModel::Step(), 0);
  SparseWtpVector merged = SparseWtpVector::Merge(ItemA(), ItemB());
  PricedOffer r = pricer.PriceOffer(merged, 1.0 + kTheta);
  EXPECT_NEAR(r.price, 15.20, 1e-9);
  EXPECT_NEAR(r.revenue, 30.40, 1e-9);
  EXPECT_DOUBLE_EQ(r.expected_buyers, 2.0);
}

TEST(OfferPricer, GridPricingApproachesExact) {
  Rng rng(31);
  OfferPricer exact(AdoptionModel::Step(), 0);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<WtpEntry> entries;
    int n = rng.UniformInt(1, 60);
    for (int u = 0; u < n; ++u) {
      entries.push_back(WtpEntry{u, rng.UniformDouble(0.5, 30.0)});
    }
    SparseWtpVector vec(entries);
    double r_exact = exact.PriceOffer(vec, 1.0).revenue;
    double prev = 0.0;
    for (int levels : {10, 100, 2000}) {
      OfferPricer grid(AdoptionModel::Step(), levels);
      double r = grid.PriceOffer(vec, 1.0).revenue;
      EXPECT_LE(r, r_exact + 1e-9);
      EXPECT_GE(r, prev - 1e-9);  // Finer grids never lose revenue here.
      prev = r;
    }
    OfferPricer grid(AdoptionModel::Step(), 2000);
    EXPECT_NEAR(grid.PriceOffer(vec, 1.0).revenue, r_exact, r_exact * 0.01);
  }
}

TEST(OfferPricer, GridPriceIsOnGridAndRevenueConsistent) {
  OfferPricer pricer(AdoptionModel::Step(), 100);
  PricedOffer r = pricer.PriceOffer(ItemA(), 1.0);
  EXPECT_GT(r.revenue, 0.0);
  EXPECT_NEAR(r.revenue, r.price * r.expected_buyers, 1e-9);
  // Revenue at the reported price must reproduce the reported revenue.
  EXPECT_NEAR(pricer.RevenueAt(ItemA(), 1.0, r.price), r.revenue, 1e-9);
}

TEST(OfferPricer, EmptyOfferHasZeroRevenue) {
  OfferPricer pricer(AdoptionModel::Step(), 100);
  SparseWtpVector empty;
  PricedOffer r = pricer.PriceOffer(empty, 1.0);
  EXPECT_DOUBLE_EQ(r.revenue, 0.0);
  EXPECT_DOUBLE_EQ(r.price, 0.0);
}

TEST(OfferPricer, NonPositiveScaleYieldsNothing) {
  OfferPricer pricer(AdoptionModel::Step(), 100);
  PricedOffer r = pricer.PriceOffer(ItemA(), 0.0);
  EXPECT_DOUBLE_EQ(r.revenue, 0.0);
}

TEST(OfferPricer, SigmoidRevenueIncreasesWithGamma) {
  // Figure 3(a): revenue coverage grows with γ (less uncertainty → the
  // seller can hold price). Verify on the Table 1 item A audience for
  // γ ≥ 0.5; at extremely low γ the near-flat demand curve lets the seller
  // gamble on noise, so the curve is not globally monotone (see the Fig. 3
  // bench notes in EXPERIMENTS.md).
  double prev = 0.0;
  for (double gamma : {0.5, 1.0, 10.0, 1e6}) {
    OfferPricer pricer(AdoptionModel::Sigmoid(gamma), 200);
    double r = pricer.PriceOffer(ItemA(), 1.0).revenue;
    EXPECT_GE(r, prev - 1e-6) << "gamma=" << gamma;
    prev = r;
  }
  // And the γ→∞ limit approaches the step optimum (16).
  OfferPricer step_like(AdoptionModel::Sigmoid(1e6), 2000);
  EXPECT_NEAR(step_like.PriceOffer(ItemA(), 1.0).revenue, 16.0, 0.2);
}

TEST(OfferPricer, SigmoidRevenueIncreasesWithAlpha) {
  // Figure 4(a): higher adoption bias α lifts revenue roughly linearly.
  double prev = 0.0;
  for (double alpha : {0.75, 0.9, 1.0, 1.1, 1.25}) {
    OfferPricer pricer(AdoptionModel::Sigmoid(1.0, alpha), 200);
    double r = pricer.PriceOffer(ItemA(), 1.0).revenue;
    EXPECT_GT(r, prev) << "alpha=" << alpha;
    prev = r;
  }
}

TEST(OfferPricer, StepBiasScalesOptimalPrice) {
  OfferPricer pricer(AdoptionModel::StepWithBias(1.25), 0);
  PricedOffer r = pricer.PriceOffer(ItemA(), 1.0);
  // All thresholds scale by 1.25: optimal price 10, two buyers, revenue 20.
  EXPECT_NEAR(r.price, 10.0, 1e-9);
  EXPECT_NEAR(r.revenue, 20.0, 1e-9);
}

TEST(OfferPricer, SampleRevenueMatchesExpectationOnAverage) {
  OfferPricer pricer(AdoptionModel::Sigmoid(1.0), 100);
  Rng rng(77);
  double price = 8.0;
  double expected = pricer.RevenueAt(ItemA(), 1.0, price);
  double sum = 0.0;
  const int runs = 4000;
  for (int i = 0; i < runs; ++i) {
    sum += pricer.SampleRevenueAt(ItemA(), 1.0, price, &rng);
  }
  EXPECT_NEAR(sum / runs, expected, expected * 0.05);
}

TEST(OfferPricer, ExactStepHelperAgreesWithLevelsZero) {
  OfferPricer pricer(AdoptionModel::Step(), 100);
  OfferPricer exact(AdoptionModel::Step(), 0);
  PricedOffer a = pricer.PriceOfferExactStep(ItemA(), 1.0);
  PricedOffer b = exact.PriceOffer(ItemA(), 1.0);
  EXPECT_DOUBLE_EQ(a.revenue, b.revenue);
  EXPECT_DOUBLE_EQ(a.price, b.price);
}

// ---------------------------------------------------------------------------
// Mixed pricing: Section 4.2 semantics on the Table 1 instance.
// ---------------------------------------------------------------------------

TEST(MixedPricer, Table1IncrementalMergeGain) {
  // Components priced first: pA=8, pB=11. Upgrade thresholds:
  //   u1: min(15.2, 8+4, 11+12) = 12, owns A → base 8
  //   u2: min(9.5, 8+2, 11+8) = 9.5, owns A → base 8
  //   u3: min(15.2, 8+11, 11+5) = 15.2, owns B → base 11
  // Window (11, 19). Best: p = 12 with adopters {u1, u3}:
  //   gain = 12·2 − (8 + 11) = 5.
  MixedPricer pricer(AdoptionModel::Step(), /*num_levels=*/0);
  SideFixture a(ItemA(), 8.0, AdoptionModel::Step());
  SideFixture b(ItemB(), 11.0, AdoptionModel::Step());
  MergeGainResult r = pricer.MergeGain(a.Side(), b.Side(), 1.0 + kTheta);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.bundle_price, 12.0, 1e-9);
  EXPECT_NEAR(r.gain, 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.expected_adopters, 2.0);
}

TEST(MixedPricer, GridApproachesExactGain) {
  SideFixture a(ItemA(), 8.0, AdoptionModel::Step());
  SideFixture b(ItemB(), 11.0, AdoptionModel::Step());
  MixedPricer exact(AdoptionModel::Step(), 0);
  double g_exact = exact.MergeGain(a.Side(), b.Side(), 1.0 + kTheta).gain;
  MixedPricer fine(AdoptionModel::Step(), 5000);
  double g_fine = fine.MergeGain(a.Side(), b.Side(), 1.0 + kTheta).gain;
  EXPECT_LE(g_fine, g_exact + 1e-9);
  EXPECT_NEAR(g_fine, g_exact, g_exact * 0.02);
}

TEST(MixedPricer, BundlePriceRespectsConstraints) {
  MixedPricer pricer(AdoptionModel::Step(), 100);
  SideFixture a(ItemA(), 8.0, AdoptionModel::Step());
  SideFixture b(ItemB(), 11.0, AdoptionModel::Step());
  MergeGainResult r = pricer.MergeGain(a.Side(), b.Side(), 1.0 + kTheta);
  if (r.feasible) {
    EXPECT_GT(r.bundle_price, 11.0);  // > max component price.
    EXPECT_LT(r.bundle_price, 19.0);  // < sum of component prices.
  }
}

TEST(MixedPricer, InfeasibleWhenComponentsUnpriced) {
  MixedPricer pricer(AdoptionModel::Step(), 100);
  SideFixture a(ItemA(), 0.0, AdoptionModel::Step());  // Unsellable component.
  SideFixture b(ItemB(), 11.0, AdoptionModel::Step());
  EXPECT_FALSE(pricer.MergeGain(a.Side(), b.Side(), 1.0).feasible);
}

TEST(MixedPricer, NoGainWhenBundleCannibalisesDoubleBuyers) {
  // Both consumers happily buy both items; any admissible bundle price is
  // below p1+p2, so the bundle only loses revenue → infeasible.
  SideFixture a(SparseWtpVector({{0, 10.0}, {1, 10.0}}), 10.0,
                AdoptionModel::Step());
  SideFixture b(SparseWtpVector({{0, 10.0}, {1, 10.0}}), 10.0,
                AdoptionModel::Step());
  MixedPricer pricer(AdoptionModel::Step(), 0);
  MergeGainResult r = pricer.MergeGain(a.Side(), b.Side(), 1.0);
  EXPECT_FALSE(r.feasible);
}

TEST(MixedPricer, CapturesBuyerPricedOutOfComponents) {
  // u0 wants both items a bit but can afford neither alone at the optimal
  // component prices; the bundle recovers them (Table 6's "Add. buyers").
  SideFixture a(SparseWtpVector({{0, 6.0}, {1, 10.0}}), 10.0,
                AdoptionModel::Step());
  SideFixture b(SparseWtpVector({{0, 6.0}, {2, 10.0}}), 10.0,
                AdoptionModel::Step());
  MixedPricer pricer(AdoptionModel::Step(), 0);
  MergeGainResult r = pricer.MergeGain(a.Side(), b.Side(), 1.0);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.bundle_price, 12.0, 1e-9);  // u0's combined WTP.
  EXPECT_NEAR(r.gain, 12.0, 1e-9);          // A brand-new buyer.
}

TEST(MixedPricer, MultiMergeGainMatchesPairOnTwoSides) {
  SideFixture a(ItemA(), 8.0, AdoptionModel::Step());
  SideFixture b(ItemB(), 11.0, AdoptionModel::Step());
  for (int levels : {0, 100, 1000}) {
    MixedPricer pricer(AdoptionModel::Step(), levels);
    MergeGainResult pair = pricer.MergeGain(a.Side(), b.Side(), 1.0 + kTheta);
    MergeGainResult multi =
        pricer.MultiMergeGain({a.Side(), b.Side()}, 1.0 + kTheta);
    EXPECT_EQ(pair.feasible, multi.feasible) << "levels=" << levels;
    EXPECT_NEAR(pair.gain, multi.gain, 1e-9) << "levels=" << levels;
    EXPECT_NEAR(pair.bundle_price, multi.bundle_price, 1e-9);
  }
}

// MixedPricer::MultiMergeGain restated per consumer: a std::map walks the
// sides' support union in ascending user order, each consumer's raw total
// and base payment are summed in side (item) order, and the prices are
// scanned as the kernel scans them. Bit-exact agreement pins the kernel's
// staging, which places every side's entries through an id → row map.
MergeGainResult ReferenceMultiMergeGain(const AdoptionModel& model, int levels,
                                        MixedComposition composition,
                                        const std::vector<MergeSide>& sides,
                                        double merged_scale) {
  constexpr double kMargin = 1e-9;
  const std::size_t m = sides.size();
  double psum = 0.0;
  double pmax = 0.0;
  for (const MergeSide& s : sides) {
    if (s.price <= 0.0) return MergeGainResult{};
    psum += s.price;
    pmax = std::max(pmax, s.price);
  }
  struct Consumer {
    std::vector<double> w;  // α·scale_j·raw_j, 0 where absent.
    double raw_total = 0.0;
    double base = 0.0;
  };
  std::map<std::int32_t, Consumer> consumers;
  for (std::size_t j = 0; j < m; ++j) {
    for (const WtpEntry& e : sides[j].raw->entries()) {
      Consumer& c = consumers[e.id];
      c.w.resize(m, 0.0);
      c.w[j] = model.alpha() * sides[j].scale * e.w;
      c.raw_total += e.w;
    }
  }
  for (const MergeSide& s : sides) {
    for (const WtpEntry& e : s.payments->entries()) {
      auto it = consumers.find(e.id);
      if (it != consumers.end()) it->second.base += e.w;
    }
  }
  struct Row {
    std::vector<double> w;
    double sum = 0.0;
    double bundle = 0.0;
    double base = 0.0;
  };
  std::vector<Row> rows;
  for (const auto& [user, c] : consumers) {
    Row row{c.w, 0.0, model.alpha() * merged_scale * c.raw_total, c.base};
    for (double w : c.w) row.sum += w;
    rows.push_back(std::move(row));
  }
  auto threshold = [&](const Row& row) {
    double t = row.bundle;
    for (std::size_t j = 0; j < m; ++j) {
      t = std::min(t, sides[j].price + (row.sum - row.w[j]));
    }
    return t;
  };
  MergeGainResult best;
  if (model.is_step() && levels == 0) {
    std::vector<std::pair<double, double>> tb;
    for (const Row& row : rows) tb.emplace_back(threshold(row), row.base);
    std::sort(tb.begin(), tb.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    double count = 0.0;
    double base_sum = 0.0;
    for (std::size_t i = 0; i < tb.size(); ++i) {
      count += 1.0;
      base_sum += tb[i].second;
      const double p = tb[i].first;
      if (i + 1 < tb.size() && tb[i + 1].first == p) continue;
      if (p <= pmax + kMargin || p >= psum - kMargin) continue;
      if (p * count - base_sum > best.gain) {
        best.gain = p * count - base_sum;
        best.bundle_price = p;
        best.expected_adopters = count;
      }
    }
  } else {
    UniformPriceView grid(psum, levels);
    std::vector<double> count(static_cast<std::size_t>(grid.size()) + 1, 0.0);
    std::vector<double> base(count.size(), 0.0);
    if (model.is_step()) {
      for (const Row& row : rows) {
        const int bucket = grid.BucketFor(threshold(row));
        if (bucket < 0) continue;
        count[static_cast<std::size_t>(bucket)] += 1.0;
        base[static_cast<std::size_t>(bucket)] += row.base;
      }
      for (std::size_t t = count.size() - 1; t-- > 0;) {
        count[t] += count[t + 1];
        base[t] += base[t + 1];
      }
    }
    for (int t = 0; t < grid.size(); ++t) {
      const double p = grid.level(t);
      if (p <= pmax + kMargin || p >= psum - kMargin) continue;
      double gain = 0.0;
      double adopters = 0.0;
      if (model.is_step()) {
        gain = p * count[static_cast<std::size_t>(t)] -
               base[static_cast<std::size_t>(t)];
        adopters = count[static_cast<std::size_t>(t)];
      } else {
        for (const Row& row : rows) {
          double min_slack = row.bundle - p;
          double product = model.ProbabilityFromSlack(min_slack);
          for (std::size_t j = 0; j < m; ++j) {
            const double slack = (row.sum - row.w[j]) - (p - sides[j].price);
            min_slack = std::min(min_slack, slack);
            if (composition == MixedComposition::kProduct) {
              product *= model.ProbabilityFromSlack(slack);
            }
          }
          const double prob = composition == MixedComposition::kMinSlack
                                  ? model.ProbabilityFromSlack(min_slack)
                                  : product;
          adopters += prob;
          gain += prob * (p - row.base);
        }
      }
      if (gain > best.gain) {
        best.gain = gain;
        best.bundle_price = p;
        best.expected_adopters = adopters;
      }
    }
  }
  best.feasible = best.gain > kMargin;
  if (!best.feasible) best = MergeGainResult{};
  return best;
}

// Random sparse multi-side audiences, m = 3 … 25, over user-id windows that
// move, grow and shrink from call to call, priced through one reused
// workspace. Raw vectors carry some zero-WTP entries; payments carry zero
// entries and consumers outside every side's support.
TEST(MixedPricer, MultiMergeGainMatchesPerConsumerReferenceBitForBit) {
  struct Mode {
    AdoptionModel model;
    int levels;
    MixedComposition composition;
  };
  const Mode modes[] = {
      {AdoptionModel::Step(), 0, MixedComposition::kMinSlack},
      {AdoptionModel::StepWithBias(1.1), 0, MixedComposition::kMinSlack},
      {AdoptionModel::Step(), 100, MixedComposition::kMinSlack},
      {AdoptionModel::Sigmoid(2.0), 40, MixedComposition::kMinSlack},
      {AdoptionModel::Sigmoid(2.0), 40, MixedComposition::kProduct},
  };
  Rng rng(4242);
  PricingWorkspace ws;
  int feasible = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int m = 3 + trial % 23;
    // Windows alternate between wide and narrow, far and near ids.
    const int span =
        trial % 3 == 0 ? 2000 : 40 + static_cast<int>(rng.UniformU32(200));
    const int first =
        static_cast<int>(rng.UniformU32(trial % 2 == 0 ? 5000 : 70));
    std::vector<SparseWtpVector> raws;
    std::vector<SparseWtpVector> pays;
    std::vector<MergeSide> sides;
    for (int j = 0; j < m; ++j) {
      const double density = rng.UniformDouble(0.02, 0.4);
      std::vector<WtpEntry> raw;
      std::vector<WtpEntry> pay;
      for (int u = first; u < first + span; ++u) {
        if (rng.Bernoulli(density)) {
          const double w =
              rng.Bernoulli(0.05) ? 0.0 : rng.UniformDouble(0.5, 20.0);
          raw.push_back(WtpEntry{u, w});
          if (rng.Bernoulli(0.6)) {
            const double pay_w =
                rng.Bernoulli(0.1) ? 0.0 : rng.UniformDouble(0.1, 10.0);
            pay.push_back(WtpEntry{u, pay_w});
          }
        } else if (rng.Bernoulli(0.05)) {
          pay.push_back(WtpEntry{u, rng.UniformDouble(0.1, 5.0)});
        }
      }
      // A payment past every raw id: outside the union by construction.
      pay.push_back(WtpEntry{first + span + 64 * j, 1.0});
      raws.emplace_back(std::move(raw));
      pays.emplace_back(std::move(pay));
    }
    for (int j = 0; j < m; ++j) {
      const double scale =
          rng.Bernoulli(0.5) ? 1.0 : rng.UniformDouble(0.9, 1.1);
      sides.push_back(MergeSide{&raws[static_cast<std::size_t>(j)], scale,
                                rng.UniformDouble(1.0, 8.0),
                                &pays[static_cast<std::size_t>(j)]});
    }
    const double merged_scale = rng.UniformDouble(0.9, 1.1);
    for (const Mode& mode : modes) {
      MixedPricer pricer(mode.model, mode.levels, mode.composition);
      const MergeGainResult got =
          pricer.MultiMergeGain(sides, merged_scale, &ws);
      const MergeGainResult want = ReferenceMultiMergeGain(
          mode.model, mode.levels, mode.composition, sides, merged_scale);
      EXPECT_EQ(got.feasible, want.feasible) << "trial " << trial << " m=" << m;
      EXPECT_EQ(got.gain, want.gain) << "trial " << trial << " m=" << m;
      EXPECT_EQ(got.bundle_price, want.bundle_price) << "trial " << trial;
      EXPECT_EQ(got.expected_adopters, want.expected_adopters)
          << "trial " << trial;
      feasible += got.feasible ? 1 : 0;
    }
  }
  // The audiences must exercise the gain scan, not only the early exits.
  EXPECT_GT(feasible, 60);
}

TEST(MixedPricer, SigmoidCompositionsAgreeInStepLimit) {
  // Component prices sit strictly below any WTP value so no consumer is at
  // an exact tie (γ·ε puts ties at probability σ(1) ≈ 0.73 by design).
  AdoptionModel sharp = AdoptionModel::Sigmoid(1e6);
  SideFixture a_sig(ItemA(), 7.9, sharp);
  SideFixture b_sig(ItemB(), 10.9, sharp);
  SideFixture a_step(ItemA(), 7.9, AdoptionModel::Step());
  SideFixture b_step(ItemB(), 10.9, AdoptionModel::Step());
  MixedPricer min_slack(sharp, 2000, MixedComposition::kMinSlack);
  MixedPricer product(sharp, 2000, MixedComposition::kProduct);
  MixedPricer step(AdoptionModel::Step(), 2000);
  double g_min = min_slack.MergeGain(a_sig.Side(), b_sig.Side(), 1.0 + kTheta).gain;
  double g_prod = product.MergeGain(a_sig.Side(), b_sig.Side(), 1.0 + kTheta).gain;
  double g_step = step.MergeGain(a_step.Side(), b_step.Side(), 1.0 + kTheta).gain;
  EXPECT_NEAR(g_min, g_step, 0.15);
  EXPECT_NEAR(g_prod, g_step, 0.15);
}

// ---------------------------------------------------------------------------
// Sparse staging vs the dense SoA view.
// ---------------------------------------------------------------------------

// One merge side held both sparsely and as the dense view the matching
// bundler maintains: num-users-sized columns, zero where the consumer is
// absent, and a support bit per consumer with positive raw WTP.
struct TwoViewSide {
  SparseWtpVector raw;
  SparseWtpVector payments;
  std::vector<double> wtp_col;
  std::vector<double> payments_col;
  Bitset support;
  double scale = 1.0;
  double price = 0.0;

  MergeSide Sparse() const { return MergeSide{&raw, scale, price, &payments}; }
  MergeSide Dense() const {
    MergeSide s = Sparse();
    s.wtp_col = wtp_col.data();
    s.payments_col = payments_col.data();
    s.support = &support;
    return s;
  }
};

enum class SupportShape { kGapped, kDisjoint, kOneEmpty };

// Side `which` (0 or 1) of a random pair. Raw WTP is positive wherever
// present. Payments cover a random part of the raw support (payments sparser
// than raw) and, now and then, a consumer outside it, which both stagings
// must ignore.
TwoViewSide RandomSide(Rng* rng, int num_users, SupportShape shape, int which) {
  const double density = rng->UniformDouble(0.05, 0.9);
  std::vector<WtpEntry> raw;
  std::vector<WtpEntry> pay;
  for (int u = 0; u < num_users; ++u) {
    bool present = rng->Bernoulli(density);
    if (shape == SupportShape::kDisjoint) present = present && (u % 2 == which);
    if (shape == SupportShape::kOneEmpty && which == 1) present = false;
    if (present) {
      const double w = rng->UniformDouble(0.5, 20.0);
      raw.push_back(WtpEntry{u, w});
      if (rng->Bernoulli(0.6)) pay.push_back(WtpEntry{u, rng->UniformDouble(0.1, w)});
    } else if (rng->Bernoulli(0.05)) {
      pay.push_back(WtpEntry{u, rng->UniformDouble(0.1, 5.0)});
    }
  }
  TwoViewSide side;
  side.wtp_col.assign(static_cast<std::size_t>(num_users), 0.0);
  side.payments_col.assign(static_cast<std::size_t>(num_users), 0.0);
  side.support = Bitset(static_cast<std::size_t>(num_users));
  for (const WtpEntry& e : raw) {
    side.wtp_col[static_cast<std::size_t>(e.id)] = e.w;
    side.support.Set(static_cast<std::size_t>(e.id));
  }
  for (const WtpEntry& e : pay) {
    side.payments_col[static_cast<std::size_t>(e.id)] = e.w;
  }
  side.raw = SparseWtpVector(std::move(raw));
  side.payments = SparseWtpVector(std::move(pay));
  side.scale = rng->Bernoulli(0.5) ? 1.0 : rng->UniformDouble(0.9, 1.1);
  side.price = rng->UniformDouble(1.0, 20.0);
  return side;
}

// BuildMergedPayments restated with binary-searched lookups per consumer of
// the support union.
SparseWtpVector ReferenceMergedPayments(const AdoptionModel& model,
                                        MixedComposition composition,
                                        const MergeSide& s1, const MergeSide& s2,
                                        double merged_scale, double price) {
  auto lookup = [](const SparseWtpVector& v, std::int32_t user) {
    auto it = std::lower_bound(
        v.entries().begin(), v.entries().end(), user,
        [](const WtpEntry& e, std::int32_t u) { return e.id < u; });
    return it != v.entries().end() && it->id == user ? it->w : 0.0;
  };
  std::vector<std::int32_t> users;
  for (const WtpEntry& e : s1.raw->entries()) users.push_back(e.id);
  for (const WtpEntry& e : s2.raw->entries()) users.push_back(e.id);
  std::sort(users.begin(), users.end());
  users.erase(std::unique(users.begin(), users.end()), users.end());
  const double alpha = model.alpha();
  std::vector<WtpEntry> out;
  for (std::int32_t u : users) {
    const double raw1 = lookup(*s1.raw, u);
    const double raw2 = lookup(*s2.raw, u);
    const double aw1 = alpha * s1.scale * raw1;
    const double aw2 = alpha * s2.scale * raw2;
    const double awb = alpha * merged_scale * (raw1 + raw2);
    const double keep = lookup(*s1.payments, u) + lookup(*s2.payments, u);
    double pay;
    if (model.is_step()) {
      const double t = std::min(awb, std::min(s1.price + aw2, s2.price + aw1));
      pay = t >= price - 1e-9 ? price : keep;
    } else {
      const double afford = awb - price;
      const double up1 = aw2 - (price - s1.price);
      const double up2 = aw1 - (price - s2.price);
      const double prob =
          composition == MixedComposition::kMinSlack
              ? model.ProbabilityFromSlack(std::min(afford, std::min(up1, up2)))
              : model.ProbabilityFromSlack(afford) *
                    model.ProbabilityFromSlack(up1) *
                    model.ProbabilityFromSlack(up2);
      pay = prob * price + (1.0 - prob) * keep;
    }
    if (pay > 0.0) out.push_back(WtpEntry{u, pay});
  }
  return SparseWtpVector(std::move(out));
}

struct PricerConfig {
  const char* name;
  AdoptionModel model;
  int levels;
  MixedComposition composition;
};

TEST(MixedPricer, SparseStagingMatchesDenseViewBitForBit) {
  const PricerConfig configs[] = {
      {"step-grid", AdoptionModel::Step(), 100, MixedComposition::kMinSlack},
      {"step-exact", AdoptionModel::Step(), 0, MixedComposition::kMinSlack},
      {"sigmoid-min-slack", AdoptionModel::Sigmoid(2.0, 1.1), 60,
       MixedComposition::kMinSlack},
      {"sigmoid-product", AdoptionModel::Sigmoid(0.7), 60,
       MixedComposition::kProduct},
  };
  const SupportShape shapes[] = {SupportShape::kGapped, SupportShape::kDisjoint,
                                 SupportShape::kOneEmpty};
  Rng rng(20151);
  PricingWorkspace ws;
  int feasible = 0;
  for (const PricerConfig& config : configs) {
    MixedPricer pricer(config.model, config.levels, config.composition);
    for (SupportShape shape : shapes) {
      for (int trial = 0; trial < 40; ++trial) {
        const int num_users = rng.UniformInt(1, 150);
        const TwoViewSide a = RandomSide(&rng, num_users, shape, 0);
        const TwoViewSide b = RandomSide(&rng, num_users, shape, 1);
        const double merged_scale = rng.UniformDouble(0.9, 1.1);
        SCOPED_TRACE(::testing::Message()
                     << config.name << " shape=" << static_cast<int>(shape)
                     << " trial=" << trial << " users=" << num_users);
        // Both orders, so the empty side is checked in either position.
        for (bool swap : {false, true}) {
          const TwoViewSide& s1 = swap ? b : a;
          const TwoViewSide& s2 = swap ? a : b;
          const MergeGainResult sparse =
              pricer.MergeGain(s1.Sparse(), s2.Sparse(), merged_scale, &ws);
          const MergeGainResult dense =
              pricer.MergeGain(s1.Dense(), s2.Dense(), merged_scale, &ws);
          EXPECT_EQ(sparse.feasible, dense.feasible);
          EXPECT_EQ(sparse.gain, dense.gain);
          EXPECT_EQ(sparse.bundle_price, dense.bundle_price);
          EXPECT_EQ(sparse.expected_adopters, dense.expected_adopters);
          feasible += sparse.feasible ? 1 : 0;

          const double price = sparse.feasible
                                   ? sparse.bundle_price
                                   : std::max(s1.price, s2.price) + 0.5;
          const SparseWtpVector built = pricer.BuildMergedPayments(
              s1.Sparse(), s2.Sparse(), merged_scale, price);
          const SparseWtpVector expected = ReferenceMergedPayments(
              config.model, config.composition, s1.Sparse(), s2.Sparse(),
              merged_scale, price);
          ASSERT_EQ(built.nnz(), expected.nnz());
          for (std::size_t i = 0; i < built.nnz(); ++i) {
            EXPECT_EQ(built.entries()[i].id, expected.entries()[i].id);
            EXPECT_EQ(built.entries()[i].w, expected.entries()[i].w);
          }
        }
      }
    }
  }
  // The comparison must exercise real optima, not only infeasible merges.
  EXPECT_GT(feasible, 100);
}

// Property sweep: on random instances the mixed gain is never negative and
// the bundle price always sits inside the admissible window.
struct MixedCase {
  int num_users;
  int levels;
};

class MixedPricerPropertyTest : public ::testing::TestWithParam<MixedCase> {};

TEST_P(MixedPricerPropertyTest, GainNonNegativePriceInWindow) {
  const MixedCase& param = GetParam();
  Rng rng(1000u + static_cast<std::uint64_t>(param.num_users * 17 + param.levels));
  OfferPricer item_pricer(AdoptionModel::Step(), param.levels);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<WtpEntry> ea, eb;
    for (int u = 0; u < param.num_users; ++u) {
      if (rng.UniformDouble() < 0.7) ea.push_back(WtpEntry{u, rng.UniformDouble(1, 20)});
      if (rng.UniformDouble() < 0.7) eb.push_back(WtpEntry{u, rng.UniformDouble(1, 20)});
    }
    if (ea.empty() || eb.empty()) continue;
    SparseWtpVector a(ea), b(eb);
    double pa = item_pricer.PriceOffer(a, 1.0).price;
    double pb = item_pricer.PriceOffer(b, 1.0).price;
    if (pa <= 0.0 || pb <= 0.0) continue;
    MixedPricer pricer(AdoptionModel::Step(), param.levels);
    SparseWtpVector pay_a = pricer.BuildStandalonePayments(a, 1.0, pa);
    SparseWtpVector pay_b = pricer.BuildStandalonePayments(b, 1.0, pb);
    MergeSide sa{&a, 1.0, pa, &pay_a};
    MergeSide sb{&b, 1.0, pb, &pay_b};
    MergeGainResult r = pricer.MergeGain(sa, sb, 1.0);
    if (r.feasible) {
      EXPECT_GT(r.gain, 0.0);
      EXPECT_GT(r.bundle_price, std::max(pa, pb));
      EXPECT_LT(r.bundle_price, pa + pb);
    } else {
      EXPECT_DOUBLE_EQ(r.gain, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomAudiences, MixedPricerPropertyTest,
                         ::testing::Values(MixedCase{5, 0}, MixedCase{5, 100},
                                           MixedCase{20, 0}, MixedCase{20, 100},
                                           MixedCase{60, 0}, MixedCase{60, 200}));

}  // namespace
}  // namespace bundlemine
