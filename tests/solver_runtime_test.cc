// Tests for the solver-runtime layer: method-table round-trips, workspace
// vs legacy pricing parity, the allocation-free uniform-grid view, solve
// statistics/deadlines, and serial vs parallel solve identity.

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/bundler_registry.h"
#include "core/solution.h"
#include "core/solve_context.h"
#include "data/generator.h"
#include "data/wtp_matrix.h"
#include "gtest/gtest.h"
#include "pricing/mixed_pricer.h"
#include "pricing/offer_pricer.h"
#include "pricing/price_grid.h"
#include "pricing/pricing_workspace.h"
#include "util/rng.h"

namespace bundlemine {
namespace {

// A small market with list prices so every registered method (including
// components-list and the WSP pair, capped at 20 items) can run on it.
WtpMatrix QuickstartMatrix() {
  std::vector<std::tuple<UserId, ItemId, double>> triplets;
  Rng rng(7);
  const int users = 40;
  const int items = 6;
  for (int u = 0; u < users; ++u) {
    for (int i = 0; i < items; ++i) {
      if (rng.UniformDouble() < 0.45) {
        triplets.emplace_back(u, i, rng.UniformDouble(2.0, 20.0));
      }
    }
  }
  return WtpMatrix::FromTriplets(users, items, triplets,
                                 {10.0, 12.0, 8.0, 15.0, 9.0, 11.0});
}

SparseWtpVector RandomAudience(Rng* rng, int size, double lo = 0.5,
                               double hi = 25.0) {
  std::vector<WtpEntry> entries;
  for (int u = 0; u < size; ++u) {
    entries.push_back(WtpEntry{u, rng->UniformDouble(lo, hi)});
  }
  return SparseWtpVector(std::move(entries));
}

void ExpectSolutionsIdentical(const BundleSolution& a, const BundleSolution& b) {
  EXPECT_EQ(a.total_revenue, b.total_revenue);  // Bitwise, not approximate.
  ASSERT_EQ(a.offers.size(), b.offers.size());
  for (std::size_t i = 0; i < a.offers.size(); ++i) {
    EXPECT_EQ(a.offers[i].items.ToString(), b.offers[i].items.ToString());
    EXPECT_EQ(a.offers[i].price, b.offers[i].price);
    EXPECT_EQ(a.offers[i].revenue, b.offers[i].revenue);
    EXPECT_EQ(a.offers[i].expected_buyers, b.offers[i].expected_buyers);
    EXPECT_EQ(a.offers[i].is_component_offer, b.offers[i].is_component_offer);
  }
}

// ---------------------------------------------------------------------------
// Method table.
// ---------------------------------------------------------------------------

TEST(MethodTable, KeysAreSortedAndUniqueAndLookupsAgree) {
  const std::vector<std::string> keys = MethodKeys();
  ASSERT_GE(keys.size(), 12u);
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LT(keys[i - 1], keys[i]);  // Sorted, so no key shadows another.
  }
  for (const std::string& key : keys) {
    const Method* method = FindMethod(key);
    ASSERT_NE(method, nullptr) << key;
    EXPECT_EQ(method->key, key);
    EXPECT_EQ(MethodDisplayName(key), method->display_name);
  }
  EXPECT_EQ(FindMethod("no-such-method"), nullptr);
  EXPECT_EQ(MethodDisplayName("mixed-matching"), "Mixed Matching");
  for (const std::string& key : StandardMethodKeys()) {
    EXPECT_NE(FindMethod(key), nullptr) << key;
  }
}

TEST(MethodTable, EveryMethodSolvesTheQuickstartInstanceUnderItsDisplayName) {
  WtpMatrix wtp = QuickstartMatrix();
  for (const std::string& key : MethodKeys()) {
    BundleConfigProblem problem;
    problem.wtp = &wtp;
    BundleSolution solution = SolveMethod(key, problem);
    EXPECT_GT(solution.total_revenue, 0.0) << key;
    EXPECT_EQ(solution.method, MethodDisplayName(key)) << key;
    std::string error;
    EXPECT_TRUE(IsValidConfiguration(solution, wtp.num_items(),
                                     FindMethod(key)->Adjust(problem).strategy,
                                     &error))
        << key << ": " << error;
  }
}

TEST(MethodTable, SolverSeesTheRowsStrategyAndSizeCap) {
  // Every key is solved from a problem that contradicts its row (the other
  // strategy, a looser size cap). The row's values must win, and SolveMethod
  // must hand the solver exactly that problem.
  WtpMatrix wtp = QuickstartMatrix();
  for (const std::string& key : MethodKeys()) {
    SCOPED_TRACE(key);
    const Method& method = *FindMethod(key);
    BundleConfigProblem problem;
    problem.wtp = &wtp;
    problem.strategy = method.strategy == BundlingStrategy::kPure
                           ? BundlingStrategy::kMixed
                           : BundlingStrategy::kPure;
    problem.max_bundle_size = 4;
    const BundleConfigProblem seen = method.Adjust(problem);
    EXPECT_EQ(seen.strategy, method.strategy.value_or(problem.strategy));
    const int cap = method.max_bundle_size > 0 ? method.max_bundle_size : 4;
    EXPECT_EQ(seen.max_bundle_size, cap);

    BundleSolution via_table = SolveMethod(key, problem);
    SolveContext context;
    ExpectSolutionsIdentical(via_table, method.solve(seen, context));
    for (const PricedBundle& offer : via_table.offers) {
      EXPECT_LE(offer.items.size(), cap);
      if (seen.strategy == BundlingStrategy::kPure) {
        EXPECT_FALSE(offer.is_component_offer);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Workspace pricing parity.
// ---------------------------------------------------------------------------

TEST(WorkspacePricing, PriceOfferMatchesLegacyAcrossModelsAndScales) {
  Rng rng(11);
  PricingWorkspace ws;  // Deliberately reused across all cases.
  std::vector<OfferPricer> pricers;
  pricers.emplace_back(AdoptionModel::Step(), 100);
  pricers.emplace_back(AdoptionModel::Step(), 0);
  pricers.emplace_back(AdoptionModel::StepWithBias(1.25), 50);
  pricers.emplace_back(AdoptionModel::Sigmoid(5.0), 100);
  for (int n : {1, 7, 64, 400}) {
    SparseWtpVector raw = RandomAudience(&rng, n);
    for (const OfferPricer& pricer : pricers) {
      for (double scale : {1.0, 0.7, 1.05}) {
        PricedOffer legacy = pricer.PriceOffer(raw, scale);
        PricedOffer fast = pricer.PriceOffer(raw, scale, &ws);
        EXPECT_EQ(legacy.price, fast.price) << n << " scale=" << scale;
        EXPECT_EQ(legacy.revenue, fast.revenue) << n << " scale=" << scale;
        EXPECT_EQ(legacy.expected_buyers, fast.expected_buyers);
      }
    }
  }
}

TEST(WorkspacePricing, SingletonFastPathHandlesNonPositiveEntries) {
  // Entries with zero/negative WTP must take the filtering path and still
  // agree with the legacy result.
  SparseWtpVector raw({{0, 5.0}, {1, -2.0}, {2, 0.0}, {3, 9.0}});
  PricingWorkspace ws;
  for (int levels : {0, 100}) {
    OfferPricer pricer(AdoptionModel::Step(), levels);
    PricedOffer legacy = pricer.PriceOffer(raw, 1.0);
    PricedOffer fast = pricer.PriceOffer(raw, 1.0, &ws);
    EXPECT_EQ(legacy.price, fast.price);
    EXPECT_EQ(legacy.revenue, fast.revenue);
    EXPECT_GT(fast.revenue, 0.0);
  }
}

TEST(WorkspacePricing, PriceEffectiveValuesMatchesLegacy) {
  Rng rng(13);
  PricingWorkspace ws;
  std::vector<double> values;
  for (int i = 0; i < 300; ++i) values.push_back(rng.UniformDouble(0.1, 30.0));
  for (int levels : {0, 100}) {
    OfferPricer pricer(AdoptionModel::Step(), levels);
    PricedOffer legacy = pricer.PriceEffectiveValues(values);
    PricedOffer fast = pricer.PriceEffectiveValues(values, &ws);
    EXPECT_EQ(legacy.price, fast.price);
    EXPECT_EQ(legacy.revenue, fast.revenue);
  }
}

TEST(WorkspacePricing, WelfarePricingMatchesLegacy) {
  Rng rng(17);
  SparseWtpVector raw = RandomAudience(&rng, 120);
  PricingWorkspace ws;
  for (int levels : {0, 100}) {
    OfferPricer pricer(AdoptionModel::Step(), levels);
    for (double w : {1.0, 0.6, 0.0}) {
      WelfarePricedOffer legacy = pricer.PriceOfferWelfare(raw, 1.0, w);
      WelfarePricedOffer fast = pricer.PriceOfferWelfare(raw, 1.0, w, &ws);
      EXPECT_EQ(legacy.price, fast.price);
      EXPECT_EQ(legacy.revenue, fast.revenue);
      EXPECT_EQ(legacy.surplus, fast.surplus);
      EXPECT_EQ(legacy.utility, fast.utility);
    }
  }
}

TEST(WorkspacePricing, MergeGainMatchesLegacy) {
  Rng rng(19);
  PricingWorkspace ws;
  for (auto [gamma, levels] : std::vector<std::pair<double, int>>{
           {0.0, 0}, {0.0, 100}, {4.0, 100}}) {
    AdoptionModel model =
        gamma > 0.0 ? AdoptionModel::Sigmoid(gamma) : AdoptionModel::Step();
    OfferPricer item_pricer(model, levels == 0 ? 0 : levels);
    MixedPricer mixed(model, levels);
    SparseWtpVector a = RandomAudience(&rng, 90);
    SparseWtpVector b = RandomAudience(&rng, 70);
    double pa = item_pricer.PriceOffer(a, 1.0).price;
    double pb = item_pricer.PriceOffer(b, 1.0).price;
    SparseWtpVector pay_a = mixed.BuildStandalonePayments(a, 1.0, pa);
    SparseWtpVector pay_b = mixed.BuildStandalonePayments(b, 1.0, pb);
    MergeSide sa{&a, 1.0, pa, &pay_a};
    MergeSide sb{&b, 1.0, pb, &pay_b};
    MergeGainResult legacy = mixed.MergeGain(sa, sb, 1.0);
    MergeGainResult fast = mixed.MergeGain(sa, sb, 1.0, &ws);
    EXPECT_EQ(legacy.feasible, fast.feasible);
    EXPECT_EQ(legacy.bundle_price, fast.bundle_price);
    EXPECT_EQ(legacy.gain, fast.gain);
    EXPECT_EQ(legacy.expected_adopters, fast.expected_adopters);

    MergeGainResult legacy_multi = mixed.MultiMergeGain({sa, sb}, 1.0);
    MergeGainResult fast_multi = mixed.MultiMergeGain({sa, sb}, 1.0, &ws);
    EXPECT_EQ(legacy_multi.feasible, fast_multi.feasible);
    EXPECT_EQ(legacy_multi.bundle_price, fast_multi.bundle_price);
    EXPECT_EQ(legacy_multi.gain, fast_multi.gain);
  }
}

TEST(WorkspacePricing, UniformViewMatchesMaterializedGrid) {
  Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    double max_price = rng.UniformDouble(0.5, 200.0);
    int levels = rng.UniformInt(1, 150);
    PriceGrid grid = PriceGrid::Uniform(max_price, levels);
    UniformPriceView view(max_price, levels);
    ASSERT_EQ(grid.size(), view.size());
    for (int t = 0; t < grid.size(); ++t) {
      EXPECT_EQ(grid.level(t), view.level(t)) << t;
    }
    for (int probe = 0; probe < 40; ++probe) {
      double v = rng.UniformDouble(-1.0, max_price * 1.2);
      EXPECT_EQ(grid.BucketFor(v), view.BucketFor(v)) << v;
    }
  }
}

// ---------------------------------------------------------------------------
// SolveContext: parallel identity, stats, deadline.
// ---------------------------------------------------------------------------

TEST(SolveContextTest, SerialAndParallelMatchingAreBitIdentical) {
  RatingsDataset data = GenerateAmazonLike(TinyProfile(99));
  WtpMatrix wtp = WtpMatrix::FromRatings(data, 1.25);
  for (const char* key : {"pure-matching", "mixed-matching", "two-sized"}) {
    BundleConfigProblem problem;
    problem.wtp = &wtp;
    SolveContext serial;
    BundleSolution base = SolveMethod(key, problem, serial);

    SolveContext::Options options;
    options.num_threads = 4;
    SolveContext parallel(options);
    BundleSolution threaded = SolveMethod(key, problem, parallel);
    ExpectSolutionsIdentical(base, threaded);

    // Both contexts priced the same candidate set.
    EXPECT_EQ(serial.stats().pairs_evaluated, parallel.stats().pairs_evaluated)
        << key;
    EXPECT_GT(serial.stats().pairs_evaluated, 0) << key;
  }
}

TEST(SolveContextTest, ContextReuseAcrossSolvesIsHarmless) {
  WtpMatrix wtp = QuickstartMatrix();
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  SolveContext fresh;
  BundleSolution expected = SolveMethod("mixed-greedy", problem, fresh);

  SolveContext reused;
  SolveMethod("pure-matching", problem, reused);   // Warm the workspaces.
  SolveMethod("mixed-freq", problem, reused);
  BundleSolution actual = SolveMethod("mixed-greedy", problem, reused);
  ExpectSolutionsIdentical(expected, actual);
}

TEST(SolveContextTest, DeadlineStopsRefinementButStaysValid) {
  RatingsDataset data = GenerateAmazonLike(TinyProfile(5));
  WtpMatrix wtp = WtpMatrix::FromRatings(data, 1.25);
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  problem.strategy = BundlingStrategy::kPure;

  SolveContext::Options options;
  options.deadline_seconds = 1e-12;  // Expires immediately.
  SolveContext context(options);
  BundleSolution solution = SolveMethod("pure-matching", problem, context);
  EXPECT_TRUE(context.stats().deadline_hit);
  std::string error;
  EXPECT_TRUE(IsValidConfiguration(solution, wtp.num_items(),
                                   BundlingStrategy::kPure, &error))
      << error;
  // No refinement happened: the configuration is the singleton baseline.
  EXPECT_EQ(solution.offers.size(), static_cast<std::size_t>(wtp.num_items()));
}

TEST(SolveContextTest, StatsAccumulateAcrossSolves) {
  WtpMatrix wtp = QuickstartMatrix();
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  SolveContext context;
  SolveMethod("pure-matching", problem, context);
  std::int64_t after_first = context.stats().pairs_evaluated;
  EXPECT_GT(after_first, 0);
  SolveMethod("pure-greedy", problem, context);
  EXPECT_GT(context.stats().pairs_evaluated, after_first);
  context.stats().Reset();
  EXPECT_EQ(context.stats().pairs_evaluated, 0);
  EXPECT_EQ(context.stats().merges, 0);
}

}  // namespace
}  // namespace bundlemine
