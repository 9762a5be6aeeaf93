// Robustness suite: precondition enforcement (death tests on the CHECK
// contracts a release build must keep), boundary inputs, and performance
// guards that fail if hot paths regress by an order of magnitude.

#include <cstdint>
#include <limits>

#include "core/bundler_registry.h"
#include "data/generator.h"
#include "data/wtp_matrix.h"
#include "gtest/gtest.h"
#include "ilp/bundle_enumeration.h"
#include "matching/max_weight_matching.h"
#include "mining/mafia.h"
#include "pricing/offer_pricer.h"
#include "util/rng.h"
#include "util/timer.h"

// Older googletest releases (pre-1.11) ship GTEST_FLAG but not the
// GTEST_FLAG_SET wrapper; fall back to assigning the flag directly.
#ifndef GTEST_FLAG_SET
#define GTEST_FLAG_SET(flag, value) (::testing::GTEST_FLAG(flag) = (value))
#endif

namespace bundlemine {
namespace {

using RobustnessDeathTest = ::testing::Test;

// ---------------------------------------------------------------------------
// Contract enforcement.
// ---------------------------------------------------------------------------

TEST(RobustnessDeathTest, MatcherRejectsOutOfRangeVertices) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  MaxWeightMatcher matcher(3);
  EXPECT_DEATH(matcher.AddEdge(0, 3, 1.0), "CHECK failed");
  EXPECT_DEATH(matcher.AddEdge(-1, 1, 1.0), "CHECK failed");
}

TEST(RobustnessDeathTest, MatcherRejectsOverflowingScaledWeights) {
  // Weights at or above 2^59 could overflow dual + dual - 2w; both entry
  // points enforce the same bound.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  MaxWeightMatcher matcher(2);
  EXPECT_DEATH(matcher.AddEdgeScaled(0, 1, std::numeric_limits<std::int64_t>::max()),
               "edge weight too large");
  EXPECT_DEATH(matcher.AddEdgeScaled(0, 1, std::int64_t{1} << 59), "edge weight too large");
  EXPECT_DEATH(matcher.AddEdge(0, 1, 1e300), "edge weight too large");
  matcher.AddEdgeScaled(0, 1, (std::int64_t{1} << 59) - 1);
  EXPECT_EQ(matcher.Solve().total_weight_scaled, (std::int64_t{1} << 59) - 1);
}

TEST(RobustnessDeathTest, MatcherSolveIsSingleShot) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  MaxWeightMatcher matcher(2);
  matcher.AddEdge(0, 1, 1.0);
  matcher.Solve();
  EXPECT_DEATH(matcher.Solve(), "Solve\\(\\) may only be called once");
}

TEST(RobustnessDeathTest, ExactPricingRequiresStepModel) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(OfferPricer(AdoptionModel::Sigmoid(1.0), /*num_levels=*/0),
               "exact pricing requires the step model");
}

TEST(RobustnessDeathTest, RunnerRejectsUnknownMethod) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  WtpMatrix wtp = WtpMatrix::FromTriplets(1, 1, {{0, 0, 1.0}});
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  EXPECT_DEATH(SolveMethod("no-such-method", problem), "unknown method key");
}

TEST(RobustnessDeathTest, OptimalWspRefusesLargeN) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Rng rng(1);
  std::vector<std::tuple<UserId, ItemId, double>> triplets;
  for (int i = 0; i < 21; ++i) triplets.emplace_back(0, i, 1.0);
  WtpMatrix wtp = WtpMatrix::FromTriplets(1, 21, triplets);
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  EXPECT_DEATH(SolveMethod("optimal-wsp", problem),
               "infeasible beyond 20 items");
}

TEST(RobustnessDeathTest, WtpMatrixRejectsDuplicateCoordinates) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      WtpMatrix::FromTriplets(2, 2, {{0, 0, 1.0}, {0, 0, 2.0}}),
      "duplicate \\(user,item\\) coordinate");
}

TEST(RobustnessDeathTest, SparseVectorRequiresSortedIds) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(SparseWtpVector({{2, 1.0}, {1, 1.0}}), "strictly sorted");
}

// ---------------------------------------------------------------------------
// Boundary inputs.
// ---------------------------------------------------------------------------

TEST(Boundaries, SingleItemMarket) {
  WtpMatrix wtp = WtpMatrix::FromTriplets(3, 1, {{0, 0, 5.0}, {1, 0, 3.0}});
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  problem.price_levels = 0;
  for (const std::string& key : StandardMethodKeys()) {
    BundleSolution s = SolveMethod(key, problem);
    EXPECT_NEAR(s.total_revenue, 6.0, 1e-9) << key;  // Price 3, two buyers.
    EXPECT_EQ(s.offers.size(), 1u) << key;
  }
}

TEST(Boundaries, SingleConsumerMarket) {
  // One consumer wanting everything: every bundling strategy should extract
  // her full WTP (price the grand bundle at her total).
  WtpMatrix wtp = WtpMatrix::FromTriplets(
      1, 3, {{0, 0, 5.0}, {0, 1, 3.0}, {0, 2, 2.0}});
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  problem.price_levels = 0;
  BundleSolution components = SolveMethod("components", problem);
  EXPECT_NEAR(components.total_revenue, 10.0, 1e-9);
  BundleSolution pure = SolveMethod("pure-matching", problem);
  EXPECT_NEAR(pure.total_revenue, 10.0, 1e-9);
}

TEST(Boundaries, ConsumerWithZeroWtpEverywhere) {
  // Users 1 and 2 rated nothing: they must not affect any pricing.
  WtpMatrix with_ghosts = WtpMatrix::FromTriplets(3, 2, {{0, 0, 7.0}, {0, 1, 2.0}});
  WtpMatrix without = WtpMatrix::FromTriplets(1, 2, {{0, 0, 7.0}, {0, 1, 2.0}});
  BundleConfigProblem p1, p2;
  p1.wtp = &with_ghosts;
  p2.wtp = &without;
  for (const char* key : {"components", "pure-matching", "mixed-greedy"}) {
    EXPECT_NEAR(SolveMethod(key, p1).total_revenue,
                SolveMethod(key, p2).total_revenue, 1e-9)
        << key;
  }
}

TEST(Boundaries, EnumerationSingleItem) {
  WtpMatrix wtp = WtpMatrix::FromTriplets(2, 1, {{0, 0, 4.0}, {1, 0, 6.0}});
  OfferPricer pricer(AdoptionModel::Step(), 0);
  BundleEnumeration e = EnumerateAllBundles(wtp, 0.0, pricer);
  ASSERT_EQ(e.revenue.size(), 2u);
  EXPECT_DOUBLE_EQ(e.revenue[1], 8.0);  // Price 4, both buy.
}

TEST(Boundaries, MaximalMinerSupportAboveEverything) {
  TransactionDb db = TransactionDb::FromTransactions(3, {{0, 1}, {1, 2}});
  MinerLimits limits;
  limits.min_support_count = 10;
  EXPECT_TRUE(MineMaximalFrequent(db, limits).empty());
}

TEST(Boundaries, ThetaMinusOneKillsAllBundles) {
  // (1+θ) = 0: every bundle is worthless; methods must fall back to
  // Components rather than crash or emit zero-price bundles.
  RatingsDataset data = GenerateAmazonLike(TinyProfile(5));
  WtpMatrix wtp = WtpMatrix::FromRatings(data, 1.25);
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  problem.theta = -1.0;
  BundleSolution components = SolveMethod("components", problem);
  for (const char* key : {"pure-matching", "mixed-greedy"}) {
    BundleSolution s = SolveMethod(key, problem);
    EXPECT_NEAR(s.total_revenue, components.total_revenue, 1e-9) << key;
  }
}

// ---------------------------------------------------------------------------
// Performance guards (generous bounds; catch order-of-magnitude regressions).
// ---------------------------------------------------------------------------

TEST(PerformanceGuard, BlossomHandles300VertexGraphQuickly) {
  Rng rng(21);
  MaxWeightMatcher matcher(300);
  for (int u = 0; u < 300; ++u) {
    for (int v = u + 1; v < 300; ++v) {
      if (rng.UniformDouble() < 0.05) {
        matcher.AddEdge(u, v, rng.UniformDouble(0.1, 10.0));
      }
    }
  }
  WallTimer timer;
  MatchingResult r = matcher.Solve();
  EXPECT_GT(r.total_weight, 0.0);
  EXPECT_LT(timer.Seconds(), 5.0);
}

TEST(PerformanceGuard, TinyProfileEndToEndUnderBudget) {
  WallTimer timer;
  RatingsDataset data = GenerateAmazonLike(TinyProfile(77));
  WtpMatrix wtp = WtpMatrix::FromRatings(data, 1.25);
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  for (const std::string& key : StandardMethodKeys()) SolveMethod(key, problem);
  EXPECT_LT(timer.Seconds(), 30.0);
}

TEST(PerformanceGuard, MaximalMinerOnTinyProfile) {
  RatingsDataset data = GenerateAmazonLike(TinyProfile(13));
  WtpMatrix wtp = WtpMatrix::FromRatings(data, 1.25);
  TransactionDb db = TransactionDb::FromWtp(wtp);
  MinerLimits limits;
  limits.min_support_count = 5;
  WallTimer timer;
  auto mfi = MineMaximalFrequent(db, limits);
  EXPECT_GT(mfi.size(), 0u);
  EXPECT_LT(timer.Seconds(), 10.0);
}

}  // namespace
}  // namespace bundlemine
