// Property-based invariants over randomized tiny instances and every method
// in the method table:
//
//   * solutions are structurally feasible (pure partitions / mixed laminar
//     families via IsValidConfiguration, which also enforces
//     item-disjointness of top-level offers),
//   * bundle sizes respect the size cap of the problem as the method's row
//     adjusts it,
//   * offer prices of pure-strategy methods come from the offer's uniform
//     price grid (T levels over (0, max effective WTP]),
//   * revenues are non-negative and finite,
//   * each mixed-* method dominates its pure-* counterpart on randomized
//     generator (Tiny-profile) instances.
//
// The structural checks run on random triplet instances of ≤ 12 items so the
// WSP pair (capped at 20) participates. The dominance check runs on the
// generator's co-rating structure: on adversarial random matrices the mixed
// heuristics' upgrade-window pricing can land a hair below the pure
// heuristic, so the paper's mixed ≥ pure shape is a property of realistic
// audiences, not of all instances.
//
// Also home to the WSP deadline regression: a tight deadline must stop the
// enumeration/packing loops early yet still return a valid partial solution.

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "core/bundler_registry.h"
#include "core/solution.h"
#include "data/generator.h"
#include "data/wtp_matrix.h"
#include "gtest/gtest.h"
#include "pricing/price_grid.h"
#include "util/rng.h"

namespace bundlemine {
namespace {

WtpMatrix RandomInstance(Rng* rng) {
  int users = rng->UniformInt(15, 40);
  int items = rng->UniformInt(6, 12);
  std::vector<std::tuple<UserId, ItemId, double>> triplets;
  std::vector<double> prices;
  for (int i = 0; i < items; ++i) {
    prices.push_back(rng->UniformDouble(5.0, 15.0));
  }
  // The last user rates everything: every item keeps at least one interested
  // consumer, so no method faces an empty audience edge case by accident
  // (that case has its own deterministic coverage elsewhere).
  for (int u = 0; u < users; ++u) {
    for (int i = 0; i < items; ++i) {
      if (u == users - 1 || rng->UniformDouble() < 0.35) {
        triplets.emplace_back(u, i, rng->UniformDouble(1.0, 20.0));
      }
    }
  }
  return WtpMatrix::FromTriplets(users, items, triplets, std::move(prices));
}

// Largest effective per-user WTP of an offer — the top of the uniform price
// grid PriceOffer scans.
double MaxEffectiveWtp(const WtpMatrix& wtp, const Bundle& items, double theta) {
  SparseWtpVector raw;
  for (ItemId item : items.items()) {
    raw = SparseWtpVector::Merge(raw, wtp.ItemVector(item));
  }
  double scale = BundleScale(items.size(), theta);
  double max_w = 0.0;
  for (const WtpEntry& entry : raw.entries()) {
    max_w = std::max(max_w, scale * entry.w);
  }
  return max_w;
}

TEST(MethodInvariants, AllRegistryMethodsUpholdPropertiesOnRandomInstances) {
  Rng rng(20260731);
  const std::vector<std::string> keys = MethodKeys();

  for (int trial = 0; trial < 6; ++trial) {
    WtpMatrix wtp = RandomInstance(&rng);
    BundleConfigProblem problem;
    problem.wtp = &wtp;
    const double thetas[] = {-0.1, -0.05, 0.0, 0.05, 0.1};
    problem.theta = thetas[rng.UniformInt(0, 4)];
    const int ks[] = {0, 2, 3, 4};
    problem.max_bundle_size = ks[rng.UniformInt(0, 3)];
    problem.price_levels = rng.UniformInt(0, 1) == 0 ? 50 : 100;
    bool sigmoid = trial % 3 == 2;
    problem.adoption =
        sigmoid ? AdoptionModel::Sigmoid(5.0) : AdoptionModel::Step();
    SCOPED_TRACE(testing::Message()
                 << "trial=" << trial << " theta=" << problem.theta
                 << " k=" << problem.max_bundle_size
                 << " levels=" << problem.price_levels
                 << (sigmoid ? " sigmoid" : " step"));

    for (const std::string& key : keys) {
      SCOPED_TRACE(key);
      const Method* method = FindMethod(key);
      ASSERT_NE(method, nullptr);
      BundleConfigProblem adjusted = method->Adjust(problem);

      BundleSolution solution = SolveMethod(key, problem);

      // Feasibility: partition / laminar family, item-disjoint top offers.
      std::string error;
      EXPECT_TRUE(IsValidConfiguration(solution, wtp.num_items(),
                                       adjusted.strategy, &error))
          << error;

      // Revenue non-negative and consistent with the offer attribution.
      EXPECT_GE(solution.total_revenue, 0.0);
      EXPECT_TRUE(std::isfinite(solution.total_revenue));
      double attributed = 0.0;
      for (const PricedBundle& offer : solution.offers) {
        attributed += offer.revenue;
      }
      EXPECT_NEAR(attributed, solution.total_revenue,
                  1e-6 * std::max(1.0, solution.total_revenue));

      const int cap = adjusted.max_bundle_size;
      for (const PricedBundle& offer : solution.offers) {
        // Size cap from the *adjusted* problem (two-sized forces k = 2).
        if (cap > 0) {
          EXPECT_LE(offer.items.size(), cap);
        }
        EXPECT_GE(offer.revenue, -1e-12);
        EXPECT_GE(offer.price, 0.0);
        EXPECT_TRUE(std::isfinite(offer.price));

        // Grid membership: pure-strategy offers are priced by PriceOffer on
        // a T-level uniform grid over (0, max effective WTP]. (Mixed bundle
        // prices live in upgrade windows with their own grids, and
        // components-list charges list prices — both out of scope here.)
        if (adjusted.strategy == BundlingStrategy::kPure &&
            key != "components-list" && offer.revenue > 0.0) {
          double max_w = MaxEffectiveWtp(wtp, offer.items, adjusted.theta);
          ASSERT_GT(max_w, 0.0);
          UniformPriceView grid(max_w, adjusted.price_levels);
          int bucket = grid.BucketFor(offer.price);
          ASSERT_GE(bucket, 0) << "price " << offer.price
                               << " below the grid (max " << max_w << ")";
          EXPECT_NEAR(grid.level(bucket), offer.price, 1e-9 * max_w)
              << "price off-grid for bundle " << offer.items.ToString();
        }
      }
    }
  }
}

TEST(MethodInvariants, MixedDominatesPureOnRandomizedTinyInstances) {
  // Mixed bundling strictly generalizes pure bundling; on the generator's
  // co-rated audiences every mixed-* heuristic at least matches its pure-*
  // sibling (paper Figures 2/5 shape), at every draw of (seed, θ, k).
  Rng rng(31337);
  const std::vector<std::string> keys = MethodKeys();
  for (int trial = 0; trial < 4; ++trial) {
    std::uint64_t seed = 100 + rng.UniformU32(1000);
    RatingsDataset data = GenerateAmazonLike(TinyProfile(seed));
    WtpMatrix wtp = WtpMatrix::FromRatings(data, 1.25);
    BundleConfigProblem problem;
    problem.wtp = &wtp;
    const double thetas[] = {-0.1, -0.05, 0.0, 0.05, 0.1};
    problem.theta = thetas[rng.UniformInt(0, 4)];
    const int ks[] = {0, 2, 3};
    problem.max_bundle_size = ks[rng.UniformInt(0, 2)];
    SCOPED_TRACE(testing::Message() << "seed=" << seed
                                    << " theta=" << problem.theta
                                    << " k=" << problem.max_bundle_size);
    for (const std::string& key : keys) {
      if (key.rfind("mixed-", 0) != 0) continue;
      std::string pure_key = "pure-" + key.substr(6);
      double mixed = SolveMethod(key, problem).total_revenue;
      double pure = SolveMethod(pure_key, problem).total_revenue;
      EXPECT_GE(mixed + 1e-6, pure) << key << " vs " << pure_key;
    }
  }
}

TEST(WspDeadline, TightDeadlineReturnsValidPartialSolution) {
  Rng rng(424242);
  WtpMatrix wtp = RandomInstance(&rng);
  for (const char* key : {"optimal-wsp", "greedy-wsp", "greedy-wsp-avg"}) {
    SCOPED_TRACE(key);
    BundleConfigProblem problem;
    problem.wtp = &wtp;

    SolveContext::Options options;
    options.deadline_seconds = 1e-12;  // Expires before the first bundle.
    SolveContext context(options);
    BundleSolution solution = SolveMethod(key, problem, context);

    EXPECT_TRUE(context.stats().deadline_hit);
    std::string error;
    EXPECT_TRUE(IsValidConfiguration(solution, wtp.num_items(),
                                     BundlingStrategy::kPure, &error))
        << error;
    EXPECT_GE(solution.total_revenue, 0.0);
  }
}

TEST(FreqDeadline, TightDeadlineStopsTheMinerWithValidPartialSolution) {
  // MAFIA honors the SolveContext stop condition: an already-expired
  // deadline must cut the mine short (deadline_hit) while the assembled
  // configuration — whatever candidates survived plus all singletons — stays
  // structurally valid.
  RatingsDataset data = GenerateAmazonLike(TinyProfile(77));
  WtpMatrix wtp = WtpMatrix::FromRatings(data, 1.25);
  for (const char* key : {"pure-freq", "mixed-freq"}) {
    SCOPED_TRACE(key);
    BundleConfigProblem problem;
    problem.wtp = &wtp;

    SolveContext::Options options;
    options.deadline_seconds = 1e-12;  // Expires before the mine starts.
    SolveContext context(options);
    BundleSolution solution = SolveMethod(key, problem, context);

    EXPECT_TRUE(context.stats().deadline_hit);
    std::string error;
    EXPECT_TRUE(IsValidConfiguration(solution, wtp.num_items(),
                                     FindMethod(key)->Adjust(problem).strategy, &error))
        << error;
    EXPECT_GE(solution.total_revenue, 0.0);
  }
}

TEST(FreqDeadline, NoDeadlineMatchesDeadlineFreeMine) {
  // The stop-condition plumbing must not change freq results when the
  // deadline never fires.
  RatingsDataset data = GenerateAmazonLike(TinyProfile(78));
  WtpMatrix wtp = WtpMatrix::FromRatings(data, 1.25);
  for (const char* key : {"pure-freq", "mixed-freq"}) {
    SCOPED_TRACE(key);
    BundleConfigProblem problem;
    problem.wtp = &wtp;

    SolveContext::Options options;
    options.deadline_seconds = 3600.0;  // Set but never reached.
    SolveContext relaxed(options);
    BundleSolution with_deadline = SolveMethod(key, problem, relaxed);
    BundleSolution without = SolveMethod(key, problem);
    EXPECT_FALSE(relaxed.stats().deadline_hit);
    EXPECT_EQ(with_deadline.total_revenue, without.total_revenue);
    ASSERT_EQ(with_deadline.offers.size(), without.offers.size());
  }
}

TEST(WspDeadline, NoDeadlineMatchesDeadlineFreePath) {
  // The stop-condition plumbing must not change results when no deadline is
  // set (the common case): identical solutions with and without a context.
  Rng rng(515151);
  WtpMatrix wtp = RandomInstance(&rng);
  BundleConfigProblem problem;
  problem.wtp = &wtp;

  SolveContext::Options options;
  options.deadline_seconds = 3600.0;  // Set but never reached.
  SolveContext relaxed(options);
  BundleSolution with_deadline = SolveMethod("optimal-wsp", problem, relaxed);
  BundleSolution without = SolveMethod("optimal-wsp", problem);
  EXPECT_FALSE(relaxed.stats().deadline_hit);
  EXPECT_EQ(with_deadline.total_revenue, without.total_revenue);
  ASSERT_EQ(with_deadline.offers.size(), without.offers.size());
  for (std::size_t i = 0; i < without.offers.size(); ++i) {
    EXPECT_EQ(with_deadline.offers[i].items.ToString(),
              without.offers[i].items.ToString());
    EXPECT_EQ(with_deadline.offers[i].price, without.offers[i].price);
  }
}

}  // namespace
}  // namespace bundlemine
