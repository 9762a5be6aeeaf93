// Parameterized end-to-end sweeps: every algorithm must uphold its feasibility
// and dominance invariants across the full (seed × θ × k × adoption) grid,
// not just at the defaults. Also pins the paper-scale generator profile to
// its calibration window, and sweeps a dataset on which Components earns
// nothing.

#include <map>

#include "api/engine.h"
#include "core/metrics.h"
#include "core/bundler_registry.h"
#include "core/solution.h"
#include "data/generator.h"
#include "data/wtp_matrix.h"
#include "gtest/gtest.h"
#include "scenario/artifact_merge.h"
#include "scenario/artifact_writer.h"

namespace bundlemine {
namespace {

struct SweepCase {
  std::uint64_t seed;
  double theta;
  int k;
  bool sigmoid;

  friend std::ostream& operator<<(std::ostream& os, const SweepCase& c) {
    return os << "seed" << c.seed << "_theta" << c.theta << "_k" << c.k
              << (c.sigmoid ? "_sigmoid" : "_step");
  }
};

class EndToEndSweepTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  static const WtpMatrix& WtpFor(std::uint64_t seed) {
    static std::map<std::uint64_t, WtpMatrix>* cache =
        new std::map<std::uint64_t, WtpMatrix>();
    auto it = cache->find(seed);
    if (it == cache->end()) {
      RatingsDataset data = GenerateAmazonLike(TinyProfile(seed));
      it = cache->emplace(seed, WtpMatrix::FromRatings(data, 1.25)).first;
    }
    return it->second;
  }
};

TEST_P(EndToEndSweepTest, AllMethodsUpholdInvariants) {
  const SweepCase& c = GetParam();
  const WtpMatrix& wtp = WtpFor(c.seed);
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  problem.theta = c.theta;
  problem.max_bundle_size = c.k;
  problem.price_levels = 100;
  problem.adoption =
      c.sigmoid ? AdoptionModel::Sigmoid(8.0) : AdoptionModel::Step();

  double components = SolveMethod("components", problem).total_revenue;
  ASSERT_GT(components, 0.0);

  for (const char* key_cstr : {"pure-matching", "pure-greedy", "mixed-matching",
                               "mixed-greedy"}) {
    const std::string key = key_cstr;
    BundleSolution s = SolveMethod(key, problem);
    BundlingStrategy strategy = key.find("mixed") != std::string::npos
                                    ? BundlingStrategy::kMixed
                                    : BundlingStrategy::kPure;
    std::string error;
    EXPECT_TRUE(IsValidConfiguration(s, wtp.num_items(), strategy, &error))
        << key << ": " << error;
    // Bundlers only accept strictly-improving merges, so they never fall
    // below the components baseline under the same adoption model.
    EXPECT_GE(s.total_revenue + 1e-6, components) << key;
    // Size cap.
    if (c.k > 0) {
      for (const PricedBundle& o : s.offers) {
        EXPECT_LE(o.items.size(), c.k) << key;
      }
    }
    // Bundle prices are positive and finite.
    for (const PricedBundle& o : s.offers) {
      if (o.revenue > 0.0) {
        EXPECT_GT(o.price, 0.0) << key;
      }
      EXPECT_LT(o.price, 1e9) << key;
    }
    // Step model at θ ≤ 0 cannot exceed aggregate willingness to pay.
    if (!c.sigmoid && c.theta <= 0.0) {
      EXPECT_LE(s.total_revenue, wtp.TotalWtp() * (1.0 + 1e-9)) << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EndToEndSweepTest,
    ::testing::Values(
        SweepCase{101, -0.05, 0, false}, SweepCase{101, 0.0, 0, false},
        SweepCase{101, 0.05, 0, false}, SweepCase{101, 0.0, 2, false},
        SweepCase{101, 0.0, 3, false}, SweepCase{101, 0.05, 4, false},
        SweepCase{202, 0.0, 0, false}, SweepCase{202, -0.1, 3, false},
        SweepCase{202, 0.1, 0, false}, SweepCase{101, 0.0, 0, true},
        SweepCase{101, 0.05, 3, true}, SweepCase{202, -0.05, 0, true}));

// A steep popularity exponent leaves the tiny dataset empty, so Components
// earns nothing and a gain over it is undefined. The sweep must answer with
// no gain on any cell — unsharded, and merged from shards — instead of
// aborting on the gain's positive-baseline check.
TEST(DegenerateDatasetSweep, ReportsNoGainOverComponents) {
  StatusOr<ScenarioSpec> spec = ResolveScenarioSpec(
      "scale=tiny;seed=7;popularity-exponent=10;"
      "methods=components,pure-matching;axis:theta=0.05");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  Engine engine;
  SweepRequest request;
  request.spec = *spec;
  StatusOr<SweepResponse> full = engine.Sweep(request);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(full->result.cells.size(), 2u);
  for (const SweepCellResult& cell : full->result.cells) {
    EXPECT_FALSE(cell.has_gain) << cell.cell.method;
  }
  const std::string artifact = SweepArtifactJson(full->result);
  EXPECT_EQ(artifact.find("gain_over_components"), std::string::npos);

  std::vector<SweepResult> shards;
  request.shard_count = 2;
  for (request.shard_index = 0; request.shard_index < 2;
       ++request.shard_index) {
    StatusOr<SweepResponse> shard = engine.Sweep(request);
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    shards.push_back(shard->result);
  }
  StatusOr<SweepResult> merged = MergeSweepResults(shards);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(SweepArtifactJson(*merged), artifact);
}

TEST(PaperScaleProfile, GeneratorHitsCalibrationWindow) {
  RatingsDataset d = GenerateAmazonLike(PaperProfile(42));
  DatasetStats s = d.Stats();
  // Paper: 4,449 users, 5,028 items, 108,291 ratings post-filtering.
  EXPECT_GT(s.num_users, 3500);
  EXPECT_LT(s.num_users, 6000);
  EXPECT_GT(s.num_items, 4000);
  EXPECT_LT(s.num_items, 6500);
  EXPECT_GT(s.num_ratings, 80000);
  EXPECT_LT(s.num_ratings, 220000);
  EXPECT_NEAR(s.rating_share[5], 0.49, 0.03);
  EXPECT_NEAR(s.price_share_low, 0.50, 0.08);
}

}  // namespace
}  // namespace bundlemine
