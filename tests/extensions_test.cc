// Tests for extension features and deeper invariants:
//   * the Section 1 α-weighted profit/surplus seller utility;
//   * exact payment-vector accounting across mixed merge levels;
//   * item cloning (Figure 7b's transform);
//   * display helpers and the method registry.

#include "core/bundle.h"
#include "core/bundler_registry.h"
#include "data/generator.h"
#include "data/ratings.h"
#include "data/wtp_matrix.h"
#include "gtest/gtest.h"
#include "pricing/mixed_pricer.h"
#include "pricing/offer_pricer.h"
#include "util/rng.h"

namespace bundlemine {
namespace {

SparseWtpVector Audience() {
  return SparseWtpVector({{0, 12.0}, {1, 8.0}, {2, 5.0}, {3, 3.0}});
}

// ---------------------------------------------------------------------------
// Welfare (α-utility) pricing.
// ---------------------------------------------------------------------------

TEST(WelfarePricing, AlphaOneEqualsRevenueMaximization) {
  OfferPricer pricer(AdoptionModel::Step(), 0);
  PricedOffer revenue_opt = pricer.PriceOffer(Audience(), 1.0);
  WelfarePricedOffer welfare = pricer.PriceOfferWelfare(Audience(), 1.0, 1.0);
  EXPECT_DOUBLE_EQ(welfare.price, revenue_opt.price);
  EXPECT_DOUBLE_EQ(welfare.revenue, revenue_opt.revenue);
  EXPECT_DOUBLE_EQ(welfare.utility, revenue_opt.revenue);
}

TEST(WelfarePricing, AlphaZeroMaximizesSurplus) {
  // Pure-surplus objective: sell to everyone at the lowest WTP value.
  OfferPricer pricer(AdoptionModel::Step(), 0);
  WelfarePricedOffer o = pricer.PriceOfferWelfare(Audience(), 1.0, 0.0);
  EXPECT_DOUBLE_EQ(o.price, 3.0);
  EXPECT_DOUBLE_EQ(o.expected_buyers, 4.0);
  // Surplus = (12-3)+(8-3)+(5-3)+(3-3) = 16.
  EXPECT_DOUBLE_EQ(o.surplus, 16.0);
}

TEST(WelfarePricing, UtilityDecomposes) {
  OfferPricer pricer(AdoptionModel::Step(), 0);
  for (double w : {0.25, 0.5, 0.8}) {
    WelfarePricedOffer o = pricer.PriceOfferWelfare(Audience(), 1.0, w);
    EXPECT_NEAR(o.utility, w * o.revenue + (1 - w) * o.surplus, 1e-9);
  }
}

TEST(WelfarePricing, LowerAlphaNeverRaisesPrice) {
  OfferPricer pricer(AdoptionModel::Step(), 0);
  double prev_price = 1e18;
  for (double w : {1.0, 0.9, 0.75, 0.5, 0.25, 0.0}) {
    WelfarePricedOffer o = pricer.PriceOfferWelfare(Audience(), 1.0, w);
    EXPECT_LE(o.price, prev_price + 1e-9) << "alpha=" << w;
    prev_price = o.price;
  }
}

TEST(WelfarePricing, RevenueNeverExceedsAlphaOneOptimum) {
  Rng rng(515);
  OfferPricer pricer(AdoptionModel::Step(), 0);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<WtpEntry> entries;
    int n = rng.UniformInt(1, 40);
    for (int u = 0; u < n; ++u) {
      entries.push_back(WtpEntry{u, rng.UniformDouble(0.5, 30.0)});
    }
    SparseWtpVector vec(entries);
    double best_revenue = pricer.PriceOffer(vec, 1.0).revenue;
    for (double w : {0.9, 0.6, 0.3}) {
      WelfarePricedOffer o = pricer.PriceOfferWelfare(vec, 1.0, w);
      EXPECT_LE(o.revenue, best_revenue + 1e-9);
      EXPECT_GE(o.surplus, -1e-9);
    }
  }
}

TEST(WelfarePricing, SigmoidModeRuns) {
  OfferPricer pricer(AdoptionModel::Sigmoid(2.0), 100);
  WelfarePricedOffer o = pricer.PriceOfferWelfare(Audience(), 1.0, 0.8);
  EXPECT_GT(o.utility, 0.0);
  EXPECT_GT(o.expected_buyers, 0.0);
}

TEST(WelfarePricing, EmptyAudience) {
  OfferPricer pricer(AdoptionModel::Step(), 0);
  SparseWtpVector empty;
  WelfarePricedOffer o = pricer.PriceOfferWelfare(empty, 1.0, 0.7);
  EXPECT_DOUBLE_EQ(o.utility, 0.0);
  EXPECT_DOUBLE_EQ(o.revenue, 0.0);
}

// ---------------------------------------------------------------------------
// Payment-vector accounting: the invariant that makes multi-level mixed
// bundling revenue exact. For any accepted merge at price p*,
//   Σ_u pay_merged(u) = Σ_u pay_1(u) + Σ_u pay_2(u) + gain.
// ---------------------------------------------------------------------------

TEST(PaymentAccounting, MergedPaymentsEqualBaselinePlusGain) {
  Rng rng(616);
  for (int levels : {0, 100}) {
    MixedPricer mixed(AdoptionModel::Step(), levels);
    OfferPricer pricer(AdoptionModel::Step(), levels);
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<WtpEntry> ea, eb;
      for (int u = 0; u < 25; ++u) {
        if (rng.UniformDouble() < 0.6) ea.push_back(WtpEntry{u, rng.UniformDouble(1, 20)});
        if (rng.UniformDouble() < 0.6) eb.push_back(WtpEntry{u, rng.UniformDouble(1, 20)});
      }
      if (ea.empty() || eb.empty()) continue;
      SparseWtpVector a(ea), b(eb);
      double pa = pricer.PriceOffer(a, 1.0).price;
      double pb = pricer.PriceOffer(b, 1.0).price;
      if (pa <= 0 || pb <= 0) continue;
      SparseWtpVector pay_a = mixed.BuildStandalonePayments(a, 1.0, pa);
      SparseWtpVector pay_b = mixed.BuildStandalonePayments(b, 1.0, pb);
      MergeSide sa{&a, 1.0, pa, &pay_a};
      MergeSide sb{&b, 1.0, pb, &pay_b};
      MergeGainResult r = mixed.MergeGain(sa, sb, 1.0);
      if (!r.feasible) continue;
      SparseWtpVector pay_m =
          mixed.BuildMergedPayments(sa, sb, 1.0, r.bundle_price);
      EXPECT_NEAR(pay_m.Sum(), pay_a.Sum() + pay_b.Sum() + r.gain, 1e-6)
          << "levels=" << levels << " trial=" << trial;
    }
  }
}

TEST(PaymentAccounting, StandalonePaymentsSumToRevenue) {
  OfferPricer pricer(AdoptionModel::Step(), 0);
  MixedPricer mixed(AdoptionModel::Step(), 0);
  PricedOffer priced = pricer.PriceOffer(Audience(), 1.0);
  SparseWtpVector payments =
      mixed.BuildStandalonePayments(Audience(), 1.0, priced.price);
  EXPECT_NEAR(payments.Sum(), priced.revenue, 1e-9);
}

TEST(PaymentAccounting, MixedSolutionTotalIsConsistentAcrossLevels) {
  // A three-level merge chain on crafted data where deep merges are
  // profitable; the end-to-end total must equal components + Σ gains, with
  // no consumer double counted (the bug class the payment vectors prevent).
  RatingsDataset data = GenerateAmazonLike(TinyProfile(31));
  WtpMatrix wtp = WtpMatrix::FromRatings(data, 1.25);
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  problem.price_levels = 100;
  BundleSolution components = SolveMethod("components", problem);
  BundleSolution mixed = SolveMethod("mixed-greedy", problem);
  double gains = 0.0;
  for (const PricedBundle& o : mixed.offers) {
    if (!o.is_component_offer && o.items.size() >= 2) gains += o.revenue;
    // Deep internal bundles appear as component offers with their own gain.
    if (o.is_component_offer && o.items.size() >= 2) gains += o.revenue;
  }
  EXPECT_NEAR(mixed.total_revenue, components.total_revenue + gains, 1e-6);
  // And per-consumer spend can never exceed aggregate WTP at θ = 0.
  EXPECT_LE(mixed.total_revenue, wtp.TotalWtp() + 1e-6);
}

// ---------------------------------------------------------------------------
// Item cloning (Figure 7b).
// ---------------------------------------------------------------------------

TEST(CloneItems, DuplicatesInventoryAndRatings) {
  std::vector<Rating> ratings = {{0, 0, 5.0f}, {1, 1, 3.0f}};
  RatingsDataset d(2, 2, ratings, {10.0, 20.0});
  RatingsDataset doubled = d.CloneItems(2);
  EXPECT_EQ(doubled.num_items(), 4);
  EXPECT_EQ(doubled.num_users(), 2);
  EXPECT_EQ(doubled.ratings().size(), 4u);
  EXPECT_DOUBLE_EQ(doubled.price(2), 10.0);  // Clone of item 0.
  EXPECT_DOUBLE_EQ(doubled.price(3), 20.0);
  // The clone of item 1 is rated by user 1 with the same stars.
  bool found = false;
  for (const Rating& r : doubled.ratings()) {
    if (r.item == 3 && r.user == 1 && r.value == 3.0f) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(CloneItems, FactorOneIsIdentity) {
  std::vector<Rating> ratings = {{0, 0, 5.0f}};
  RatingsDataset d(1, 1, ratings, {10.0});
  RatingsDataset same = d.CloneItems(1);
  EXPECT_EQ(same.num_items(), 1);
  EXPECT_EQ(same.ratings().size(), 1u);
}

// ---------------------------------------------------------------------------
// Display helpers / registry.
// ---------------------------------------------------------------------------

TEST(BundleToString, ElidesLongBundles) {
  std::vector<ItemId> many;
  for (int i = 0; i < 30; ++i) many.push_back(i);
  std::string s = Bundle(many).ToString();
  EXPECT_NE(s.find("+18 more"), std::string::npos);
  EXPECT_LT(s.size(), 100u);
}

TEST(Runner, DisplayNamesRoundTrip) {
  for (const std::string& key : StandardMethodKeys()) {
    EXPECT_FALSE(MethodDisplayName(key).empty());
  }
  EXPECT_EQ(MethodDisplayName("optimal-wsp"), "Optimal");
  EXPECT_EQ(MethodDisplayName("greedy-wsp"), "Greedy WSP");
  EXPECT_EQ(MethodDisplayName("two-sized"), "2-sized Optimal");
}

TEST(Runner, StandardKeysAreSevenMethods) {
  EXPECT_EQ(StandardMethodKeys().size(), 7u);
  EXPECT_EQ(StandardMethodKeys().front(), "components");
}

}  // namespace
}  // namespace bundlemine
