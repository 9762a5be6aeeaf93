// Unit tests for the set-packing solvers, exhaustive bundle enumeration, and
// the optimal-partition DP. The exact branch-and-bound is cross-validated
// against brute force, and the partition DP against both.

#include <bit>

#include "data/wtp_matrix.h"
#include "gtest/gtest.h"
#include "ilp/bundle_enumeration.h"
#include "ilp/partition_dp.h"
#include "oracles/set_packing.h"
#include "pricing/offer_pricer.h"
#include "util/rng.h"

namespace bundlemine {
namespace {

SetPackingInstance RandomInstance(Rng* rng, int num_items, int num_sets) {
  SetPackingInstance inst;
  inst.num_items = num_items;
  for (int j = 0; j < num_sets; ++j) {
    std::vector<int> set;
    for (int i = 0; i < num_items; ++i) {
      if (rng->UniformDouble() < 0.35) set.push_back(i);
    }
    if (set.empty()) set.push_back(rng->UniformInt(0, num_items - 1));
    inst.sets.push_back(std::move(set));
    inst.weights.push_back(rng->UniformDouble(0.5, 10.0));
  }
  return inst;
}

TEST(SetPacking, ExactSolvesTextbookInstance) {
  // Items {0..3}; best packing is {0,1} + {2,3} with weight 9.
  SetPackingInstance inst;
  inst.num_items = 4;
  inst.sets = {{0, 1}, {2, 3}, {1, 2}, {0, 1, 2, 3}};
  inst.weights = {4.0, 5.0, 7.0, 8.0};
  SetPackingSolution sol = SolveExact(inst);
  EXPECT_DOUBLE_EQ(sol.total_weight, 9.0);
  EXPECT_EQ(sol.selected, (std::vector<int>{0, 1}));
  EXPECT_TRUE(sol.proven_optimal);
  EXPECT_TRUE(IsFeasiblePacking(inst, sol.selected));
}

TEST(SetPacking, GreedyAverageWeightRule) {
  // Ratios: {0,1}→2, {2}→6, {0,1,2}→3. Greedy takes {2} then {0,1} → 10.
  SetPackingInstance inst;
  inst.num_items = 3;
  inst.sets = {{0, 1}, {2}, {0, 1, 2}};
  inst.weights = {4.0, 6.0, 9.0};
  SetPackingSolution sol = SolveGreedy(inst, GreedyRatio::kAveragePerItem);
  EXPECT_DOUBLE_EQ(sol.total_weight, 10.0);
}

TEST(SetPacking, GreedyCanBeSuboptimal) {
  // Greedy (avg weight) picks {1} (ratio 5) blocking the heavy pair {0,1};
  // exact takes {0,1} = 8.
  SetPackingInstance inst;
  inst.num_items = 2;
  inst.sets = {{0, 1}, {1}};
  inst.weights = {8.0, 5.0};
  EXPECT_DOUBLE_EQ(SolveGreedy(inst).total_weight, 5.0 + 0.0);
  EXPECT_DOUBLE_EQ(SolveExact(inst).total_weight, 8.0);
}

TEST(SetPacking, NodeBudgetReturnsIncumbent) {
  Rng rng(5);
  SetPackingInstance inst = RandomInstance(&rng, 12, 40);
  SetPackingSolution full = SolveExact(inst);
  SetPackingSolution capped = SolveExact(inst, /*max_nodes=*/5);
  EXPECT_TRUE(full.proven_optimal);
  EXPECT_LE(capped.total_weight, full.total_weight + 1e-9);
  EXPECT_TRUE(IsFeasiblePacking(inst, capped.selected));
}

TEST(SetPacking, IsFeasiblePackingDetectsOverlap) {
  SetPackingInstance inst;
  inst.num_items = 3;
  inst.sets = {{0, 1}, {1, 2}};
  inst.weights = {1.0, 1.0};
  EXPECT_FALSE(IsFeasiblePacking(inst, {0, 1}));
  EXPECT_TRUE(IsFeasiblePacking(inst, {0}));
  EXPECT_FALSE(IsFeasiblePacking(inst, {5}));  // Out of range.
}

struct PackingCase {
  int num_items;
  int num_sets;
};

class SetPackingPropertyTest : public ::testing::TestWithParam<PackingCase> {};

TEST_P(SetPackingPropertyTest, ExactEqualsBruteForceGreedyFeasible) {
  const PackingCase& param = GetParam();
  Rng rng(31000u + static_cast<std::uint64_t>(param.num_items * 100 + param.num_sets));
  for (int trial = 0; trial < 40; ++trial) {
    SetPackingInstance inst = RandomInstance(&rng, param.num_items, param.num_sets);
    SetPackingSolution brute = SolveBruteForce(inst);
    SetPackingSolution exact = SolveExact(inst);
    SetPackingSolution greedy = SolveGreedy(inst);
    SetPackingSolution greedy_sqrt = SolveGreedy(inst, GreedyRatio::kSqrtSize);
    EXPECT_NEAR(exact.total_weight, brute.total_weight, 1e-9) << "trial " << trial;
    EXPECT_TRUE(exact.proven_optimal);
    EXPECT_TRUE(IsFeasiblePacking(inst, exact.selected));
    EXPECT_TRUE(IsFeasiblePacking(inst, greedy.selected));
    EXPECT_LE(greedy.total_weight, exact.total_weight + 1e-9);
    EXPECT_LE(greedy_sqrt.total_weight, exact.total_weight + 1e-9);
    // Chandra–Halldórsson style bound (loose check): greedy ≥ OPT/√N.
    EXPECT_GE(greedy_sqrt.total_weight + 1e-9,
              exact.total_weight / std::sqrt(static_cast<double>(param.num_items)));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SetPackingPropertyTest,
                         ::testing::Values(PackingCase{4, 6}, PackingCase{6, 10},
                                           PackingCase{8, 12}, PackingCase{8, 18},
                                           PackingCase{10, 15}));

// ---------------------------------------------------------------------------
// Bundle enumeration.
// ---------------------------------------------------------------------------

WtpMatrix RandomWtp(Rng* rng, int num_users, int num_items) {
  std::vector<std::tuple<UserId, ItemId, double>> triplets;
  for (int u = 0; u < num_users; ++u) {
    for (int i = 0; i < num_items; ++i) {
      if (rng->UniformDouble() < 0.5) {
        triplets.emplace_back(u, i, rng->UniformDouble(1.0, 20.0));
      }
    }
  }
  return WtpMatrix::FromTriplets(num_users, num_items, triplets);
}

TEST(BundleEnumeration, MatchesDirectPricingOfEverySubset) {
  Rng rng(71);
  WtpMatrix wtp = RandomWtp(&rng, 12, 6);
  const double theta = -0.03;
  OfferPricer pricer(AdoptionModel::Step(), 100);
  BundleEnumeration enumeration = EnumerateAllBundles(wtp, theta, pricer);
  ASSERT_EQ(enumeration.revenue.size(), 64u);
  EXPECT_EQ(enumeration.bundles_priced, 63);

  for (std::uint32_t mask = 1; mask < 64; ++mask) {
    // Independent recomputation through sparse merging.
    SparseWtpVector raw;
    int size = 0;
    for (int i = 0; i < 6; ++i) {
      if ((mask >> i) & 1u) {
        raw = SparseWtpVector::Merge(raw, wtp.ItemVector(i));
        ++size;
      }
    }
    double scale = size >= 2 ? 1.0 + theta : 1.0;
    double expected = pricer.PriceOffer(raw, scale).revenue;
    EXPECT_NEAR(enumeration.revenue[mask], expected, 1e-9) << "mask=" << mask;
  }
}

TEST(BundleEnumeration, SingletonsIgnoreTheta) {
  Rng rng(73);
  WtpMatrix wtp = RandomWtp(&rng, 8, 4);
  OfferPricer pricer(AdoptionModel::Step(), 100);
  BundleEnumeration with_theta = EnumerateAllBundles(wtp, 0.5, pricer);
  BundleEnumeration no_theta = EnumerateAllBundles(wtp, 0.0, pricer);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(with_theta.revenue[1u << i], no_theta.revenue[1u << i]);
  }
}

// ---------------------------------------------------------------------------
// Optimal partition DP.
// ---------------------------------------------------------------------------

// Brute-force best partition by recursive enumeration.
double BestPartitionBruteForce(const std::vector<double>& revenue, int n,
                               std::uint32_t mask, int max_size) {
  if (mask == 0) return 0.0;
  int low = std::countr_zero(mask);
  std::uint32_t low_bit = 1u << low;
  std::uint32_t rest = mask ^ low_bit;
  double best = -1.0;
  std::uint32_t sub = rest;
  while (true) {
    std::uint32_t bundle = low_bit | sub;
    if (max_size <= 0 || std::popcount(bundle) <= max_size) {
      best = std::max(best, revenue[bundle] + BestPartitionBruteForce(
                                                  revenue, n, mask & ~bundle,
                                                  max_size));
    }
    if (sub == 0) break;
    sub = (sub - 1) & rest;
  }
  return best;
}

TEST(PartitionDp, MatchesBruteForceOnRandomTables) {
  Rng rng(91);
  for (int trial = 0; trial < 25; ++trial) {
    int n = rng.UniformInt(2, 8);
    std::vector<double> revenue(static_cast<std::size_t>(1) << n, 0.0);
    for (std::size_t mask = 1; mask < revenue.size(); ++mask) {
      revenue[mask] = rng.UniformDouble(0.0, 10.0);
    }
    for (int k : {0, 2, 3}) {
      PartitionResult dp = SolveOptimalPartition(revenue, n, k);
      double expected = BestPartitionBruteForce(
          revenue, n, static_cast<std::uint32_t>((1u << n) - 1), k);
      EXPECT_NEAR(dp.total_revenue, expected, 1e-9) << "n=" << n << " k=" << k;
      // Bundles must partition the ground set.
      std::uint32_t covered = 0;
      for (std::uint32_t b : dp.bundles) {
        EXPECT_EQ(covered & b, 0u);
        covered |= b;
        if (k > 0) {
          EXPECT_LE(std::popcount(b), k);
        }
      }
      EXPECT_EQ(covered, (1u << n) - 1);
    }
  }
}

TEST(PartitionDp, AgreesWithGeneralSetPackingSolver) {
  // Build an explicit set-packing instance from every mask and check the
  // three exact paths coincide (4 items → 15 candidate sets, within the
  // brute-force oracle's 24-set limit).
  Rng rng(101);
  WtpMatrix wtp = RandomWtp(&rng, 10, 4);
  OfferPricer pricer(AdoptionModel::Step(), 100);
  BundleEnumeration enumeration = EnumerateAllBundles(wtp, 0.0, pricer);

  PartitionResult dp = SolveOptimalPartition(enumeration.revenue, 4, 0);

  SetPackingInstance inst;
  inst.num_items = 4;
  for (std::uint32_t mask = 1; mask < 16; ++mask) {
    if (enumeration.revenue[mask] <= 0.0) continue;
    std::vector<int> set;
    for (int i = 0; i < 4; ++i) {
      if ((mask >> i) & 1u) set.push_back(i);
    }
    inst.sets.push_back(std::move(set));
    inst.weights.push_back(enumeration.revenue[mask]);
  }
  SetPackingSolution exact = SolveExact(inst);
  SetPackingSolution brute = SolveBruteForce(inst);
  EXPECT_NEAR(dp.total_revenue, exact.total_weight, 1e-9);
  EXPECT_NEAR(dp.total_revenue, brute.total_weight, 1e-9);
}

TEST(GreedyWspOverMasks, PicksBestRatioFirst) {
  // n=2: revenue table indexed {01, 10, 11}.
  std::vector<double> revenue = {0.0, 5.0, 6.0, 8.0};
  // Ratios: {0}→5, {1}→6, {0,1}→4. Greedy picks {1}, then {0}: total 11.
  auto masks = GreedyWspOverMasks(revenue, 2, /*average_per_item=*/true);
  ASSERT_EQ(masks.size(), 2u);
  EXPECT_EQ(masks[0], 2u);
  EXPECT_EQ(masks[1], 1u);
}

TEST(GreedyWspOverMasks, NeverExceedsOptimalPartition) {
  Rng rng(111);
  for (int trial = 0; trial < 20; ++trial) {
    int n = rng.UniformInt(2, 7);
    std::vector<double> revenue(static_cast<std::size_t>(1) << n, 0.0);
    for (std::size_t mask = 1; mask < revenue.size(); ++mask) {
      revenue[mask] = rng.UniformDouble(0.0, 10.0);
    }
    auto masks = GreedyWspOverMasks(revenue, n, true);
    double greedy_total = 0.0;
    std::uint32_t used = 0;
    for (std::uint32_t m : masks) {
      EXPECT_EQ(m & used, 0u);
      used |= m;
      greedy_total += revenue[m];
    }
    PartitionResult dp = SolveOptimalPartition(revenue, n, 0);
    EXPECT_LE(greedy_total, dp.total_revenue + 1e-9);
  }
}

}  // namespace
}  // namespace bundlemine
