// Unit tests for core types: Bundle algebra, solution validation, metrics,
// and the Components baseline on the paper's Table 1 worked example.

#include "core/bundle.h"
#include "core/bundler_registry.h"
#include "core/metrics.h"
#include "core/solution.h"
#include "gtest/gtest.h"

namespace bundlemine {
namespace {

TEST(Bundle, ConstructionSortsAndDedupes) {
  Bundle b({3, 1, 3, 2});
  EXPECT_EQ(b.items(), (std::vector<ItemId>{1, 2, 3}));
  EXPECT_EQ(b.size(), 3);
  EXPECT_TRUE(b.Contains(2));
  EXPECT_FALSE(b.Contains(4));
}

TEST(Bundle, OfAndFromMask) {
  EXPECT_EQ(Bundle::Of(7).items(), (std::vector<ItemId>{7}));
  EXPECT_EQ(Bundle::FromMask(0b1011u).items(), (std::vector<ItemId>{0, 1, 3}));
}

TEST(Bundle, SetAlgebra) {
  Bundle a({1, 2});
  Bundle b({2, 3});
  Bundle c({4});
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_EQ(Bundle::Union(a, b).items(), (std::vector<ItemId>{1, 2, 3}));
  EXPECT_TRUE(Bundle({2}).IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(b));
  EXPECT_EQ(a.ToString(), "{1, 2}");
}

TEST(BundleScaleRule, SingletonsUnscaled) {
  EXPECT_DOUBLE_EQ(BundleScale(1, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(BundleScale(2, -0.05), 0.95);
  EXPECT_DOUBLE_EQ(BundleScale(3, 0.1), 1.1);
}

// ---------------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------------

PricedBundle Offer(std::vector<ItemId> items, bool component = false) {
  PricedBundle pb;
  pb.items = Bundle(std::move(items));
  pb.price = 1.0;
  pb.revenue = 1.0;
  pb.is_component_offer = component;
  return pb;
}

TEST(Validation, ValidPurePartition) {
  BundleSolution s;
  s.offers = {Offer({0, 1}), Offer({2})};
  std::string error;
  EXPECT_TRUE(IsValidPureConfiguration(s, 3, &error)) << error;
}

TEST(Validation, PureRejectsOverlap) {
  BundleSolution s;
  s.offers = {Offer({0, 1}), Offer({1, 2})};
  std::string error;
  EXPECT_FALSE(IsValidPureConfiguration(s, 3, &error));
  EXPECT_NE(error.find("covered twice"), std::string::npos);
}

TEST(Validation, PureRejectsUncovered) {
  BundleSolution s;
  s.offers = {Offer({0})};
  std::string error;
  EXPECT_FALSE(IsValidPureConfiguration(s, 2, &error));
  EXPECT_NE(error.find("uncovered"), std::string::npos);
}

TEST(Validation, PureRejectsComponentOffers) {
  BundleSolution s;
  s.offers = {Offer({0, 1}), Offer({0}, /*component=*/true), Offer({2})};
  EXPECT_FALSE(IsValidPureConfiguration(s, 3, nullptr));
}

TEST(Validation, ValidMixedLaminarFamily) {
  BundleSolution s;
  s.offers = {Offer({0, 1, 2}), Offer({3}), Offer({0, 1}, true), Offer({0}, true),
              Offer({1}, true), Offer({2}, true)};
  std::string error;
  EXPECT_TRUE(IsValidMixedConfiguration(s, 4, &error)) << error;
}

TEST(Validation, MixedRejectsCrossingComponents) {
  BundleSolution s;
  s.offers = {Offer({0, 1, 2}), Offer({1, 2}, true), Offer({0, 1}, true)};
  EXPECT_FALSE(IsValidMixedConfiguration(s, 3, nullptr));
}

TEST(Validation, MixedRejectsOrphanComponent) {
  BundleSolution s;
  s.offers = {Offer({0, 1}), Offer({2}), Offer({2}, true)};
  // {2} as component is not a *strict* subset of any top offer.
  EXPECT_FALSE(IsValidMixedConfiguration(s, 3, nullptr));
}

TEST(Validation, DispatchesOnStrategy) {
  BundleSolution s;
  s.offers = {Offer({0})};
  EXPECT_TRUE(IsValidConfiguration(s, 1, BundlingStrategy::kPure, nullptr));
  EXPECT_TRUE(IsValidConfiguration(s, 1, BundlingStrategy::kMixed, nullptr));
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

TEST(Metrics, CoverageAndGainArithmetic) {
  std::vector<std::tuple<UserId, ItemId, double>> triplets = {
      {0, 0, 12.0}, {1, 0, 8.0}};
  WtpMatrix wtp = WtpMatrix::FromTriplets(2, 1, triplets);
  EXPECT_DOUBLE_EQ(RevenueCoverage(11.0, wtp), 0.55);
  EXPECT_DOUBLE_EQ(RevenueGain(11.0, 10.0), 0.1);
}

// ---------------------------------------------------------------------------
// Components baseline on Table 1: total revenue $27 (pA=8, pB=11).
// ---------------------------------------------------------------------------

WtpMatrix Table1Wtp() {
  std::vector<std::tuple<UserId, ItemId, double>> triplets = {
      {0, 0, 12.0}, {1, 0, 8.0}, {2, 0, 5.0},
      {0, 1, 4.0},  {1, 1, 2.0}, {2, 1, 11.0}};
  return WtpMatrix::FromTriplets(3, 2, triplets);
}

TEST(ComponentsBaseline, Table1Revenue) {
  WtpMatrix wtp = Table1Wtp();
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  problem.price_levels = 0;  // Exact pricing for the worked example.
  BundleSolution s = SolveMethod("components", problem);
  EXPECT_NEAR(s.total_revenue, 27.0, 1e-9);
  ASSERT_EQ(s.offers.size(), 2u);
  EXPECT_NEAR(s.offers[0].price, 8.0, 1e-9);
  EXPECT_NEAR(s.offers[1].price, 11.0, 1e-9);
  std::string error;
  EXPECT_TRUE(IsValidPureConfiguration(s, 2, &error)) << error;
  EXPECT_EQ(s.method, "Components");
}

TEST(ComponentsBaseline, GridPricingIsCloseToExact) {
  WtpMatrix wtp = Table1Wtp();
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  problem.price_levels = 100;
  BundleSolution s = SolveMethod("components", problem);
  EXPECT_NEAR(s.total_revenue, 27.0, 27.0 * 0.02);
}

}  // namespace
}  // namespace bundlemine
