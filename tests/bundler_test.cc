// Integration tests across the bundling algorithms: feasibility of produced
// configurations, dominance over the Components baseline, agreement between
// the heuristics and the exact optimum on small instances, the k-size cap,
// revert-to-components behaviour, and determinism.

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <tuple>

#include "core/bundler_registry.h"
#include "core/metrics.h"
#include "core/solution.h"
#include "data/generator.h"
#include "gtest/gtest.h"
#include "pricing/offer_pricer.h"
#include "pricing/pricing_workspace.h"
#include "util/rng.h"

namespace bundlemine {
namespace {

// Shared tiny dataset (≈60-80 items after filtering) + WTP at λ = 1.25.
const WtpMatrix& TinyWtp() {
  static const WtpMatrix* wtp = [] {
    RatingsDataset data = GenerateAmazonLike(TinyProfile(2024));
    return new WtpMatrix(WtpMatrix::FromRatings(data, 1.25));
  }();
  return *wtp;
}

BundleConfigProblem TinyProblem() {
  BundleConfigProblem p;
  p.wtp = &TinyWtp();
  p.theta = 0.0;
  p.adoption = AdoptionModel::Step();
  p.price_levels = 100;
  return p;
}

// A small random WTP matrix (N ≤ 12) for exact-comparison tests.
WtpMatrix SmallRandomWtp(std::uint64_t seed, int num_users, int num_items) {
  Rng rng(seed);
  std::vector<std::tuple<UserId, ItemId, double>> triplets;
  for (int u = 0; u < num_users; ++u) {
    for (int i = 0; i < num_items; ++i) {
      if (rng.UniformDouble() < 0.4) {
        triplets.emplace_back(u, i, rng.UniformDouble(1.0, 20.0));
      }
    }
  }
  return WtpMatrix::FromTriplets(num_users, num_items, triplets);
}

// ---------------------------------------------------------------------------
// Feasibility + dominance for every method on the tiny dataset.
// ---------------------------------------------------------------------------

class MethodInvariantsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MethodInvariantsTest, ProducesValidConfigurationAndBeatsComponents) {
  const std::string key = GetParam();
  BundleConfigProblem problem = TinyProblem();
  BundleSolution components = SolveMethod("components", problem);
  BundleSolution solution = SolveMethod(key, problem);

  BundlingStrategy strategy = key.find("mixed") != std::string::npos
                                  ? BundlingStrategy::kMixed
                                  : BundlingStrategy::kPure;
  std::string error;
  EXPECT_TRUE(IsValidConfiguration(solution, TinyWtp().num_items(), strategy, &error))
      << key << ": " << error;

  // All bundling methods revert to Components when bundling does not help,
  // so they can never fall below it.
  EXPECT_GE(solution.total_revenue + 1e-6, components.total_revenue) << key;

  // Revenue is bounded by aggregate WTP under the step model at θ ≤ 0.
  EXPECT_LE(RevenueCoverage(solution, TinyWtp()), 1.0 + 1e-9) << key;

  // Offer-level attribution sums to the configuration total.
  double attributed = 0.0;
  for (const PricedBundle& o : solution.offers) attributed += o.revenue;
  EXPECT_NEAR(attributed, solution.total_revenue, 1e-6) << key;
}

INSTANTIATE_TEST_SUITE_P(AllMethods, MethodInvariantsTest,
                         ::testing::Values("pure-matching", "pure-greedy",
                                           "pure-freq", "mixed-matching",
                                           "mixed-greedy", "mixed-freq",
                                           "two-sized"));

TEST(MethodInvariants, DeterministicAcrossRuns) {
  BundleConfigProblem problem = TinyProblem();
  for (const std::string& key : StandardMethodKeys()) {
    BundleSolution a = SolveMethod(key, problem);
    BundleSolution b = SolveMethod(key, problem);
    EXPECT_DOUBLE_EQ(a.total_revenue, b.total_revenue) << key;
    EXPECT_EQ(a.offers.size(), b.offers.size()) << key;
  }
}

TEST(MethodInvariants, SizeCapIsRespected) {
  for (int k : {2, 3, 4}) {
    BundleConfigProblem problem = TinyProblem();
    problem.max_bundle_size = k;
    for (const char* key :
         {"pure-matching", "pure-greedy", "mixed-matching", "mixed-greedy",
          "pure-freq", "mixed-freq"}) {
      BundleSolution s = SolveMethod(key, problem);
      for (const PricedBundle& o : s.offers) {
        EXPECT_LE(o.items.size(), k) << key << " k=" << k;
      }
    }
  }
}

TEST(MethodInvariants, KEqualsOneDegeneratesToComponents) {
  BundleConfigProblem problem = TinyProblem();
  problem.max_bundle_size = 1;
  BundleSolution components = SolveMethod("components", problem);
  for (const char* key : {"pure-matching", "pure-greedy", "mixed-matching",
                                 "mixed-greedy"}) {
    BundleSolution s = SolveMethod(key, problem);
    EXPECT_NEAR(s.total_revenue, components.total_revenue, 1e-9) << key;
    for (const PricedBundle& o : s.offers) EXPECT_EQ(o.items.size(), 1) << key;
  }
}

TEST(MethodInvariants, LargerKNeverHurts) {
  // Figure 5's monotone trend is exact for the matching/greedy heuristics on
  // their own trajectory: a larger cap can only admit more merges.
  BundleConfigProblem problem = TinyProblem();
  for (const char* key : {"pure-greedy", "mixed-greedy"}) {
    double prev = 0.0;
    for (int k : {1, 2, 3, 5, 8, 0}) {  // 0 = unconstrained.
      problem.max_bundle_size = k;
      double revenue = SolveMethod(key, problem).total_revenue;
      EXPECT_GE(revenue + 1e-6, prev) << key << " k=" << k;
      prev = revenue;
    }
  }
}

TEST(MethodInvariants, StronglyNegativeThetaRevertsToComponents) {
  BundleConfigProblem problem = TinyProblem();
  problem.theta = -0.9;  // Bundles are worth a fraction of their parts.
  BundleSolution components = SolveMethod("components", problem);
  for (const char* key : {"pure-matching", "pure-greedy"}) {
    BundleSolution s = SolveMethod(key, problem);
    EXPECT_NEAR(s.total_revenue, components.total_revenue, 1e-9) << key;
    for (const PricedBundle& o : s.offers) EXPECT_EQ(o.items.size(), 1) << key;
  }
}

TEST(MethodInvariants, PositiveThetaGrowsPureBundles) {
  // With strongly complementary items pure bundling must beat Components.
  BundleConfigProblem problem = TinyProblem();
  problem.theta = 0.10;
  BundleSolution components = SolveMethod("components", problem);
  BundleSolution matching = SolveMethod("pure-matching", problem);
  EXPECT_GT(matching.total_revenue, components.total_revenue * 1.02);
}

TEST(MethodInvariants, TraceIsMonotone) {
  BundleConfigProblem problem = TinyProblem();
  for (const char* key : {"pure-matching", "pure-greedy", "mixed-matching",
                                 "mixed-greedy"}) {
    BundleSolution s = SolveMethod(key, problem);
    ASSERT_FALSE(s.trace.empty()) << key;
    for (std::size_t i = 1; i < s.trace.size(); ++i) {
      EXPECT_GE(s.trace[i].total_revenue + 1e-9, s.trace[i - 1].total_revenue)
          << key;
      EXPECT_GE(s.trace[i].cumulative_seconds + 1e-9,
                s.trace[i - 1].cumulative_seconds)
          << key;
      EXPECT_LE(s.trace[i].num_top_offers, s.trace[i - 1].num_top_offers) << key;
    }
    EXPECT_NEAR(s.trace.back().total_revenue, s.total_revenue, 1e-6) << key;
  }
}

TEST(MethodInvariants, GreedyHasMoreIterationsThanMatching) {
  // Figure 6: greedy converges via many single-merge iterations, matching in
  // a handful of rounds.
  BundleConfigProblem problem = TinyProblem();
  BundleSolution matching = SolveMethod("pure-matching", problem);
  BundleSolution greedy = SolveMethod("pure-greedy", problem);
  // Only meaningful when bundling actually happens.
  if (greedy.trace.size() > 2) {
    EXPECT_LE(matching.trace.size(), greedy.trace.size());
  }
}

// ---------------------------------------------------------------------------
// Exactness: heuristics vs the optimal WSP solution on small instances.
// ---------------------------------------------------------------------------

TEST(Exactness, TwoSizedMatchingEqualsOptimalPartitionK2) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    WtpMatrix wtp = SmallRandomWtp(seed, 30, 10);
    BundleConfigProblem problem;
    problem.wtp = &wtp;
    // Exact step pricing: with a T-level grid, separately-priced items and a
    // jointly-priced pair are discretized on *different* grids, so a
    // disjoint-audience pair can show a spurious positive gain that the
    // co-interest pruning (correctly, under exact pricing) never considers.
    problem.price_levels = 0;
    problem.max_bundle_size = 2;
    // θ = 0 keeps the co-interest pruning lossless.
    problem.theta = 0.0;

    BundleSolution matching = SolveMethod("two-sized", problem);
    BundleSolution optimal = SolveMethod("optimal-wsp", problem);
    EXPECT_NEAR(matching.total_revenue, optimal.total_revenue, 1e-6)
        << "seed " << seed;
  }
}

TEST(Exactness, HeuristicsBracketedByComponentsAndOptimal) {
  for (std::uint64_t seed : {7u, 17u, 27u}) {
    WtpMatrix wtp = SmallRandomWtp(seed, 25, 9);
    BundleConfigProblem problem;
    problem.wtp = &wtp;
    problem.price_levels = 100;

    double components = SolveMethod("components", problem).total_revenue;
    double optimal = SolveMethod("optimal-wsp", problem).total_revenue;
    for (const char* key : {"pure-matching", "pure-greedy", "pure-freq",
                                   "greedy-wsp-avg"}) {
      double revenue = SolveMethod(key, problem).total_revenue;
      EXPECT_GE(revenue + 1e-6, components) << key << " seed " << seed;
      EXPECT_LE(revenue, optimal + 1e-6) << key << " seed " << seed;
    }
    // The √-ratio greedy (the Table 4 baseline) is only bounded by Optimal;
    // it may fall below Components by construction.
    double sqrt_greedy = SolveMethod("greedy-wsp", problem).total_revenue;
    EXPECT_LE(sqrt_greedy, optimal + 1e-6) << "seed " << seed;
  }
}

TEST(Exactness, OptimalWspIsAValidPartitionAndDominatesGreedyWsp) {
  WtpMatrix wtp = SmallRandomWtp(77, 30, 11);
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  problem.price_levels = 100;
  BundleSolution optimal = SolveMethod("optimal-wsp", problem);
  BundleSolution greedy = SolveMethod("greedy-wsp", problem);
  std::string error;
  EXPECT_TRUE(IsValidPureConfiguration(optimal, 11, &error)) << error;
  EXPECT_TRUE(IsValidPureConfiguration(greedy, 11, &error)) << error;
  EXPECT_GE(optimal.total_revenue + 1e-9, greedy.total_revenue);
}

TEST(Exactness, DpTotalMatchesRepricedOffers) {
  WtpMatrix wtp = SmallRandomWtp(88, 20, 8);
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  problem.price_levels = 100;
  BundleSolution optimal = SolveMethod("optimal-wsp", problem);
  double sum = 0.0;
  for (const PricedBundle& o : optimal.offers) sum += o.revenue;
  EXPECT_NEAR(sum, optimal.total_revenue, 1e-6);
}

// ---------------------------------------------------------------------------
// Pruning ablations: exact on θ ≤ 0, and stale-edge pruning only trades
// revenue for speed in a bounded way.
// ---------------------------------------------------------------------------

TEST(Pruning, CoInterestPruningLosslessAtThetaZero) {
  WtpMatrix wtp = SmallRandomWtp(99, 25, 9);
  BundleConfigProblem with = TinyProblem();
  with.wtp = &wtp;
  BundleConfigProblem without = with;
  without.prune_co_interest = false;
  for (const char* key : {"pure-matching", "pure-greedy"}) {
    double a = SolveMethod(key, with).total_revenue;
    double b = SolveMethod(key, without).total_revenue;
    EXPECT_NEAR(a, b, 1e-6) << key;
  }
}

TEST(Pruning, DisablingStaleEdgePruningNeverLosesRevenue) {
  BundleConfigProblem with = TinyProblem();
  BundleConfigProblem without = with;
  without.prune_stale_edges = false;
  double pruned = SolveMethod("pure-matching", with).total_revenue;
  double full = SolveMethod("pure-matching", without).total_revenue;
  EXPECT_GE(full + 1e-6, pruned);
}

TEST(Pruning, GreedyFallbackMatcherStaysClose) {
  BundleConfigProblem exact = TinyProblem();
  BundleConfigProblem approx = exact;
  approx.exact_matching_limit = 0;  // Force the 1/2-approx matcher.
  double r_exact = SolveMethod("pure-matching", exact).total_revenue;
  double r_approx = SolveMethod("pure-matching", approx).total_revenue;
  EXPECT_LE(r_approx, r_exact + 1e-6);
  EXPECT_GE(r_approx, 0.95 * r_exact);  // Matching quality dents, not craters.
}

// ---------------------------------------------------------------------------
// Mixed-specific semantics.
// ---------------------------------------------------------------------------

TEST(Mixed, ComponentOffersNestInsideTopBundles) {
  BundleConfigProblem problem = TinyProblem();
  BundleSolution s = SolveMethod("mixed-matching", problem);
  auto top = s.TopOffers();
  for (const PricedBundle& o : s.offers) {
    if (!o.is_component_offer) continue;
    bool nested = false;
    for (const PricedBundle* t : top) {
      if (o.items.IsSubsetOf(t->items) && o.items.size() < t->items.size()) {
        nested = true;
        break;
      }
    }
    EXPECT_TRUE(nested) << o.items.ToString();
  }
}

TEST(Mixed, BundlePricesRespectGuiltinanConstraints) {
  BundleConfigProblem problem = TinyProblem();
  BundleSolution s = SolveMethod("mixed-greedy", problem);
  // For every top-level merged bundle, price must be below the sum of its
  // direct children's prices and above their max.
  // (Child prices are recoverable from the component offers.)
  std::map<std::vector<ItemId>, double> price_of;
  for (const PricedBundle& o : s.offers) price_of[o.items.items()] = o.price;
  for (const PricedBundle& o : s.offers) {
    if (o.is_component_offer || o.items.size() < 2) continue;
    double sum_children = 0.0;
    double max_children = 0.0;
    int found = 0;
    // Children are component offers partitioning this bundle; approximate by
    // greedily scanning components. (Exact tree recovery is in the solvers.)
    for (const PricedBundle& c : s.offers) {
      if (!c.is_component_offer) continue;
      if (c.items.IsSubsetOf(o.items)) {
        ++found;
        sum_children += c.price;
        max_children = std::max(max_children, c.price);
      }
    }
    if (found >= 2) {
      EXPECT_GT(o.price, max_children - 1e-9) << o.items.ToString();
    }
  }
}

TEST(Mixed, StochasticMixedRunsEndToEnd) {
  BundleConfigProblem problem = TinyProblem();
  problem.adoption = AdoptionModel::Sigmoid(5.0);
  BundleSolution s = SolveMethod("mixed-matching", problem);
  std::string error;
  EXPECT_TRUE(IsValidMixedConfiguration(s, TinyWtp().num_items(), &error)) << error;
  EXPECT_GT(s.total_revenue, 0.0);
}

// Pure FreqItemset sums each consumer's WTP over a candidate's items in
// item order, then prices the positive effective WTPs in ascending user
// order. Exact pricing (levels = 0) sets the price to one consumer's
// effective WTP, so every selected bundle must match a per-consumer
// reference bit for bit. Random non-round WTPs make the sums depend on the
// summation order; the test requires that dependence to show in at least
// one selected bundle, so it would catch a different order.
TEST(FreqItemset, PureAudienceSumsInItemOrderBitForBit) {
  // Disjoint groups of items, each rated by its own consumers with high
  // probability: every group is a maximal frequent itemset, and most of a
  // bundle's consumers sum four or five WTPs, drawn with a full 53-bit
  // mantissa so that their sums round.
  std::mt19937_64 rng(2626);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> wtp_value(1.0, 50.0);
  constexpr int kGroups = 10;
  constexpr int kGroupSize = 5;
  constexpr int kUsers = 400;
  constexpr int kItems = kGroups * kGroupSize;
  std::vector<std::tuple<UserId, ItemId, double>> triplets;
  for (UserId u = 0; u < kUsers; ++u) {
    const int group = u % kGroups;
    for (int j = 0; j < kGroupSize; ++j) {
      if (unit(rng) < 0.9) {
        triplets.emplace_back(u, group * kGroupSize + j, wtp_value(rng));
      }
    }
  }
  const WtpMatrix wtp = WtpMatrix::FromTriplets(kUsers, kItems, triplets);
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  problem.theta = 0.5;
  problem.price_levels = 0;
  const BundleSolution solution = SolveMethod("pure-freq", problem);

  const OfferPricer pricer(problem.adoption, problem.price_levels);
  PricingWorkspace ws;
  // Prices the bundle's audience summed per consumer over its items in the
  // given order.
  auto price_summed = [&](const Bundle& items, bool reverse) {
    std::vector<ItemId> order = items.items();
    if (reverse) std::reverse(order.begin(), order.end());
    std::map<UserId, double> audience;  // Ascending user order.
    for (ItemId item : order) {
      const SparseWtpVector users = wtp.ItemVector(item);
      for (const WtpEntry& e : users.entries()) audience[e.id] += e.w;
    }
    const double scale = BundleScale(items.size(), problem.theta);
    std::vector<double> values;
    for (const auto& [user, w] : audience) {
      if (scale * w > 0.0) values.push_back(scale * w);
    }
    return pricer.PriceEffectiveValues(values, &ws);
  };
  int checked = 0;
  int order_sensitive = 0;
  for (const PricedBundle& offer : solution.offers) {
    if (offer.items.size() < 2) continue;
    SCOPED_TRACE(offer.items.ToString());
    const PricedOffer expected = price_summed(offer.items, false);
    EXPECT_EQ(offer.price, expected.price);
    EXPECT_EQ(offer.revenue, expected.revenue);
    EXPECT_EQ(offer.expected_buyers, expected.expected_buyers);
    ++checked;
    if (price_summed(offer.items, true).price != expected.price) {
      ++order_sensitive;
    }
  }
  EXPECT_GT(checked, 0);
  EXPECT_GT(order_sensitive, 0);
}

}  // namespace
}  // namespace bundlemine
