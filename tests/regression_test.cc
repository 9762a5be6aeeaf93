// Additional regression coverage: cross-checks of derived quantities against
// brute-force recomputation, boundary tolerances, a wider oracle range for
// the blossom matcher, and the golden sweep artifacts (a fixed-seed Tiny
// θ-sweep, a Small mixed-pricing sweep and a Small offer-graph sweep,
// compared field-by-field against tests/golden/).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "core/market_simulator.h"
#include "core/bundler_registry.h"
#include "data/generator.h"
#include "data/wtp_matrix.h"
#include "gtest/gtest.h"
#include "matching/max_weight_matching.h"
#include "oracles/brute_force_matching.h"
#include "pricing/mixed_pricer.h"
#include "pricing/offer_pricer.h"
#include "pricing/price_grid.h"
#include "scenario/artifact_writer.h"
#include "scenario/scenario_spec.h"
#include "scenario/sweep_runner.h"
#include "sweep_test_util.h"
#include "util/rng.h"
#include "util/strings.h"

namespace bundlemine {
namespace {

TEST(CoInterestedPairs, MatchesBruteForceOnRandomMatrices) {
  // Zero-WTP entries are stored but never make a pair; negative WTP is
  // rejected when the matrix is built, so zero is the only non-positive case.
  Rng rng(3131);
  for (int trial = 0; trial < 20; ++trial) {
    int users = rng.UniformInt(2, 15);
    int items = rng.UniformInt(2, 12);
    std::vector<std::tuple<UserId, ItemId, double>> triplets;
    std::vector<std::set<ItemId>> baskets(static_cast<std::size_t>(users));
    for (int u = 0; u < users; ++u) {
      for (int i = 0; i < items; ++i) {
        const double roll = rng.UniformDouble();
        if (roll < 0.3) {
          triplets.emplace_back(u, i, rng.UniformDouble(0.5, 5.0));
          baskets[static_cast<std::size_t>(u)].insert(i);
        } else if (roll < 0.4) {
          triplets.emplace_back(u, i, 0.0);
        }
      }
    }
    WtpMatrix wtp = WtpMatrix::FromTriplets(users, items, triplets);
    // Sorted by (a, b), each pair once.
    std::set<std::pair<ItemId, ItemId>> unique;
    for (const auto& basket : baskets) {
      for (ItemId a : basket) {
        for (ItemId b : basket) {
          if (a < b) unique.insert({a, b});
        }
      }
    }
    const std::vector<std::pair<ItemId, ItemId>> expected(unique.begin(),
                                                          unique.end());
    EXPECT_EQ(wtp.CoInterestedPairs(), expected) << "trial " << trial;
  }
}

TEST(PriceGrid, BoundaryToleranceAbsorbsFloatNoise) {
  PriceGrid g = PriceGrid::Uniform(10.0, 100);
  // A value equal to a level up to strictly-below rounding must land in it.
  double level = g.level(37);
  EXPECT_EQ(g.BucketFor(level * (1.0 - 1e-14)), 37);
  EXPECT_EQ(g.BucketFor(level), 37);
}

TEST(PriceGrid, NegativeValuesBelowGrid) {
  PriceGrid g = PriceGrid::Uniform(10.0, 10);
  EXPECT_EQ(g.BucketFor(-3.0), -1);
  EXPECT_EQ(g.BucketFor(0.0), -1);
}

TEST(OfferPricer, SigmoidRevenueAtMatchesDefinition) {
  SparseWtpVector audience({{0, 12.0}, {1, 8.0}, {2, 5.0}});
  AdoptionModel model = AdoptionModel::Sigmoid(2.0);
  OfferPricer pricer(model, 100);
  double price = 7.0;
  double expected = 0.0;
  for (double w : {12.0, 8.0, 5.0}) expected += model.Probability(w, price);
  EXPECT_NEAR(pricer.ExpectedBuyersAt(audience, 1.0, price), expected, 1e-12);
  EXPECT_NEAR(pricer.RevenueAt(audience, 1.0, price), price * expected, 1e-12);
}

TEST(OfferPricer, ScaleFoldsIntoEffectiveWtp) {
  SparseWtpVector audience({{0, 10.0}, {1, 20.0}});
  OfferPricer pricer(AdoptionModel::Step(), 0);
  PricedOffer half = pricer.PriceOffer(audience, 0.5);
  PricedOffer full = pricer.PriceOffer(audience, 1.0);
  EXPECT_NEAR(half.revenue, full.revenue * 0.5, 1e-9);
  EXPECT_NEAR(half.price, full.price * 0.5, 1e-9);
}

TEST(MixedPricer, EmptyWindowIsInfeasible) {
  // p1 = p2 = 10 with only 2 grid levels over (0, 20]: levels {10, 20}; no
  // level lies strictly inside (10, 20) → infeasible regardless of WTP.
  SparseWtpVector a({{0, 30.0}});
  SparseWtpVector b({{0, 30.0}});
  MixedPricer pricer(AdoptionModel::Step(), 2);
  SparseWtpVector pay_a = pricer.BuildStandalonePayments(a, 1.0, 10.0);
  SparseWtpVector pay_b = pricer.BuildStandalonePayments(b, 1.0, 10.0);
  MergeSide sa{&a, 1.0, 10.0, &pay_a};
  MergeSide sb{&b, 1.0, 10.0, &pay_b};
  EXPECT_FALSE(pricer.MergeGain(sa, sb, 1.0).feasible);
}

TEST(MaxWeightMatcher, WiderOracleRange) {
  // Extend the randomized oracle cross-check to 14-16 vertices.
  Rng rng(9090);
  for (int n : {14, 15, 16}) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<WeightedEdge> edges;
      for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
          if (rng.UniformDouble() < 0.3) {
            edges.push_back(
                WeightedEdge{u, v, static_cast<double>(rng.UniformInt(1, 100))});
          }
        }
      }
      MaxWeightMatcher matcher(n);
      for (const WeightedEdge& e : edges) matcher.AddEdge(e.u, e.v, e.w);
      MatchingResult blossom = matcher.Solve();
      MatchingResult oracle = BruteForceMaxWeightMatching(n, edges);
      EXPECT_NEAR(blossom.total_weight, oracle.total_weight, 1e-6)
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(MaxWeightMatcher, PermutationInvariantTotalWeight) {
  Rng rng(4242);
  int n = 12;
  std::vector<WeightedEdge> edges;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.UniformDouble() < 0.4) {
        edges.push_back(WeightedEdge{u, v, rng.UniformDouble(0.5, 9.0)});
      }
    }
  }
  MaxWeightMatcher direct(n);
  for (const WeightedEdge& e : edges) direct.AddEdge(e.u, e.v, e.w);
  double base = direct.Solve().total_weight;

  std::vector<int> perm(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  for (int shuffle = 0; shuffle < 5; ++shuffle) {
    rng.Shuffle(&perm);
    MaxWeightMatcher permuted(n);
    for (const WeightedEdge& e : edges) {
      permuted.AddEdge(perm[static_cast<std::size_t>(e.u)],
                       perm[static_cast<std::size_t>(e.v)], e.w);
    }
    EXPECT_NEAR(permuted.Solve().total_weight, base, 1e-9);
  }
}

TEST(MarketSimulator, PositiveThetaBundleBeatsComponentsForFans) {
  // Two fans of both items; θ = 0.2 bundle at a price above the component
  // sum's reach: simulator must account the augmented WTP.
  WtpMatrix wtp = WtpMatrix::FromTriplets(
      2, 2, {{0, 0, 10.0}, {0, 1, 10.0}, {1, 0, 10.0}, {1, 1, 10.0}});
  BundleSolution config;
  PricedBundle bundle;
  bundle.items = Bundle({0, 1});
  bundle.price = 23.0;  // Below (1+0.2)·20 = 24, above the 20 component sum.
  config.offers = {bundle};
  MarketSimulator sim(wtp, /*theta=*/0.2);
  MarketOutcome out = sim.Evaluate(config);
  EXPECT_NEAR(out.revenue, 46.0, 1e-9);
  EXPECT_NEAR(out.consumer_surplus, 2.0, 1e-9);
}

TEST(Validation, RejectsDuplicateTopOffers) {
  BundleSolution s;
  PricedBundle a;
  a.items = Bundle({0});
  a.price = 1.0;
  s.offers = {a, a};
  EXPECT_FALSE(IsValidPureConfiguration(s, 1, nullptr));
}

TEST(Generator, MediumProfileSatisfiesCoreConstraint) {
  RatingsDataset d = GenerateAmazonLike(MediumProfile(3));
  std::vector<int> user_deg(static_cast<std::size_t>(d.num_users()), 0);
  std::vector<int> item_deg(static_cast<std::size_t>(d.num_items()), 0);
  for (const Rating& r : d.ratings()) {
    ++user_deg[static_cast<std::size_t>(r.user)];
    ++item_deg[static_cast<std::size_t>(r.item)];
  }
  for (int deg : user_deg) ASSERT_GE(deg, 10);
  for (int deg : item_deg) ASSERT_GE(deg, 10);
  EXPECT_GT(d.num_items(), 800);  // Medium keeps a four-digit inventory.
}

TEST(RunnerRegression, TwoSizedRespectsCapEvenWhenProblemSaysOtherwise) {
  RatingsDataset data = GenerateAmazonLike(TinyProfile(55));
  WtpMatrix wtp = WtpMatrix::FromRatings(data, 1.25);
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  problem.max_bundle_size = 7;  // Runner must override to 2.
  BundleSolution s = SolveMethod("two-sized", problem);
  for (const PricedBundle& o : s.offers) EXPECT_LE(o.items.size(), 2);
}

// ---------------------------------------------------------------------------
// Golden sweep artifacts.
// ---------------------------------------------------------------------------

// Each checked-in artifact pins every field of a fixed-seed sweep —
// revenues, coverages, gains, histograms, and solve statistics. Any solver
// change that shifts a number must consciously regenerate it:
//
//   BUNDLEMINE_REGEN_GOLDEN=1 ./build/regression_test
//       --gtest_filter='GoldenSweep.*'
//
// (then review the diff under tests/golden/).
void ExpectSweepMatchesGolden(const ScenarioSpec& spec,
                              const std::string& golden_name) {
  SweepRunnerOptions options;
  options.threads = 2;  // The artifact is thread-invariant by construction.
  std::string actual = SweepArtifactJson(RunFullSweep(spec, options));

  const std::string golden_path =
      std::string(BUNDLEMINE_SOURCE_DIR) + "/tests/golden/" + golden_name;
  if (std::getenv("BUNDLEMINE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << actual;
    out.close();  // Flush before the comparison below reopens the file.
    ASSERT_TRUE(out.good());
    std::printf("regenerated %s\n", golden_path.c_str());
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden artifact " << golden_path
                         << " (regenerate with BUNDLEMINE_REGEN_GOLDEN=1)";
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string expected = buffer.str();

  // Field-by-field: the artifact renders one scalar field per line, so a
  // line-level comparison pinpoints the exact field that moved.
  std::vector<std::string> expected_lines = Split(expected, '\n');
  std::vector<std::string> actual_lines = Split(actual, '\n');
  EXPECT_EQ(expected_lines.size(), actual_lines.size());
  for (std::size_t i = 0;
       i < std::min(expected_lines.size(), actual_lines.size()); ++i) {
    EXPECT_EQ(expected_lines[i], actual_lines[i])
        << "artifact line " << (i + 1) << " diverged from " << golden_name;
    if (expected_lines[i] != actual_lines[i]) break;  // First diff suffices.
  }
}

// All seven standard methods on the tiny profile.
TEST(GoldenSweep, TinyThetaSweepMatchesCheckedInArtifact) {
  ScenarioSpec spec;
  spec.name = "golden-tiny-theta";
  spec.description = "fixed-seed tiny theta sweep pinned by regression_test";
  spec.dataset.profile = "tiny";
  spec.dataset.seed = 7;
  spec.methods = StandardMethodKeys();
  spec.axes.push_back({AxisKind::kTheta, {-0.05, 0.0, 0.05}});
  ExpectSweepMatchesGolden(spec, "tiny_theta_sweep.json");
}

// The sparse mixed-pricing paths at small scale: mixed greedy runs
// multi-level merges whose sides carry nested payment vectors, and mixed
// FreqItemset prices itemsets of more than two items.
TEST(GoldenSweep, SmallMixedSweepMatchesCheckedInArtifact) {
  std::string error;
  std::optional<ScenarioSpec> spec = ParseScenarioSpec(
      "scale=small;seed=7;methods=mixed-greedy,mixed-freq;axis:theta=0.05",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ExpectSweepMatchesGolden(*spec, "small_mixed_sweep.json");
}

// The offer-graph bundlers at small scale: pure greedy and both matching
// strategies run many-round merges over the shared offer graph (matching on
// dense columns, greedy on sparse vectors).
TEST(GoldenSweep, SmallOfferGraphSweepMatchesCheckedInArtifact) {
  std::string error;
  std::optional<ScenarioSpec> spec = ParseScenarioSpec(
      "scale=small;seed=7;methods=pure-greedy,pure-matching,mixed-matching;"
      "axis:theta=0.05",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ExpectSweepMatchesGolden(*spec, "small_offer_graph_sweep.json");
}

}  // namespace
}  // namespace bundlemine
