// Tests for the blossom maximum-weight matcher, the brute-force oracle, and
// the greedy matcher. The central guarantee — exact optimality of the blossom
// implementation — is established by randomized cross-checks against the
// bitmask-DP oracle over hundreds of small graph instances, and against the
// former dense blossom matcher on graphs of up to 400 vertices, including
// dense ones that exercise the sparse core's certificate and repair.

#include "matching/max_weight_matching.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "matching/simple_matchers.h"
#include "oracles/brute_force_matching.h"
#include "oracles/dense_max_weight_matching.h"
#include "util/rng.h"

namespace bundlemine {
namespace {

// Builds a MaxWeightMatcher from an edge list and solves it.
MatchingResult SolveBlossom(int n, const std::vector<WeightedEdge>& edges) {
  MaxWeightMatcher matcher(n);
  for (const WeightedEdge& e : edges) matcher.AddEdge(e.u, e.v, e.w);
  return matcher.Solve();
}

// Validates structural soundness: symmetric mates, no self-matching.
void ExpectValidMatching(int n, const MatchingResult& r) {
  ASSERT_EQ(r.mate.size(), static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    int m = r.mate[static_cast<std::size_t>(v)];
    if (m == -1) continue;
    ASSERT_GE(m, 0);
    ASSERT_LT(m, n);
    EXPECT_NE(m, v);
    EXPECT_EQ(r.mate[static_cast<std::size_t>(m)], v);
  }
}

TEST(MaxWeightMatcher, EmptyGraph) {
  MatchingResult r = SolveBlossom(0, {});
  EXPECT_EQ(r.total_weight, 0.0);
  EXPECT_TRUE(r.mate.empty());
}

TEST(MaxWeightMatcher, SingleVertexNoEdges) {
  MatchingResult r = SolveBlossom(1, {});
  EXPECT_EQ(r.total_weight, 0.0);
  EXPECT_EQ(r.mate[0], -1);
}

TEST(MaxWeightMatcher, SingleEdge) {
  MatchingResult r = SolveBlossom(2, {{0, 1, 5.0}});
  EXPECT_DOUBLE_EQ(r.total_weight, 5.0);
  EXPECT_EQ(r.mate[0], 1);
  EXPECT_EQ(r.mate[1], 0);
}

TEST(MaxWeightMatcher, PrefersHeavierDisjointPair) {
  // Path 0-1-2-3: middle edge heavy but the two outer edges together win.
  MatchingResult r =
      SolveBlossom(4, {{0, 1, 4.0}, {1, 2, 6.0}, {2, 3, 4.0}});
  EXPECT_DOUBLE_EQ(r.total_weight, 8.0);
  EXPECT_EQ(r.mate[0], 1);
  EXPECT_EQ(r.mate[2], 3);
}

TEST(MaxWeightMatcher, PrefersHeavyMiddleEdge) {
  MatchingResult r =
      SolveBlossom(4, {{0, 1, 2.0}, {1, 2, 9.0}, {2, 3, 2.0}});
  EXPECT_DOUBLE_EQ(r.total_weight, 9.0);
  EXPECT_EQ(r.mate[1], 2);
  EXPECT_EQ(r.mate[0], -1);
  EXPECT_EQ(r.mate[3], -1);
}

TEST(MaxWeightMatcher, OddCycleTriangle) {
  // A triangle can match only one edge; it must pick the heaviest.
  MatchingResult r = SolveBlossom(3, {{0, 1, 3.0}, {1, 2, 5.0}, {0, 2, 4.0}});
  EXPECT_DOUBLE_EQ(r.total_weight, 5.0);
  EXPECT_EQ(r.mate[1], 2);
}

TEST(MaxWeightMatcher, BlossomFormationFiveCycle) {
  // 5-cycle with a pendant: forces blossom shrinking in the search.
  std::vector<WeightedEdge> edges = {{0, 1, 10.0}, {1, 2, 10.0}, {2, 3, 10.0},
                                     {3, 4, 10.0}, {4, 0, 10.0}, {2, 5, 10.0}};
  MatchingResult r = SolveBlossom(6, edges);
  EXPECT_DOUBLE_EQ(r.total_weight, 30.0);
  ExpectValidMatching(6, r);
}

TEST(MaxWeightMatcher, ZeroAndNegativeEdgesIgnored) {
  MatchingResult r = SolveBlossom(2, {{0, 1, 0.0}});
  EXPECT_DOUBLE_EQ(r.total_weight, 0.0);
  EXPECT_EQ(r.mate[0], -1);
  r = SolveBlossom(2, {{0, 1, -3.0}});
  EXPECT_DOUBLE_EQ(r.total_weight, 0.0);
}

TEST(MaxWeightMatcher, ParallelEdgesKeepMax) {
  MatchingResult r = SolveBlossom(2, {{0, 1, 2.0}, {0, 1, 7.0}, {1, 0, 3.0}});
  EXPECT_DOUBLE_EQ(r.total_weight, 7.0);
}

TEST(BruteForceMatcher, MatchesKnownOptimum) {
  std::vector<WeightedEdge> edges = {{0, 1, 4.0}, {1, 2, 6.0}, {2, 3, 4.0}};
  MatchingResult r = BruteForceMaxWeightMatching(4, edges);
  EXPECT_DOUBLE_EQ(r.total_weight, 8.0);
  ExpectValidMatching(4, r);
}

TEST(GreedyMatcher, IsAtLeastHalfOptimalOnAdversarialPath) {
  // Greedy takes the middle edge (6) while OPT = 8; ratio 0.75 ≥ 1/2.
  std::vector<WeightedEdge> edges = {{0, 1, 4.0}, {1, 2, 6.0}, {2, 3, 4.0}};
  MatchingResult r = GreedyMaxWeightMatching(4, edges);
  EXPECT_DOUBLE_EQ(r.total_weight, 6.0);
}

// ---------------------------------------------------------------------------
// Randomized cross-validation: blossom == brute force on hundreds of random
// graphs of varying size/density, including integer and fractional weights.
// ---------------------------------------------------------------------------

struct RandomGraphCase {
  int num_vertices;
  double edge_prob;
  bool integer_weights;
};

class MatchingPropertyTest : public ::testing::TestWithParam<RandomGraphCase> {};

TEST_P(MatchingPropertyTest, BlossomEqualsBruteForce) {
  const RandomGraphCase& param = GetParam();
  Rng rng(1234u + static_cast<std::uint64_t>(param.num_vertices) * 1000 +
          static_cast<std::uint64_t>(param.edge_prob * 100));
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<WeightedEdge> edges;
    for (int u = 0; u < param.num_vertices; ++u) {
      for (int v = u + 1; v < param.num_vertices; ++v) {
        if (rng.UniformDouble() < param.edge_prob) {
          double w = param.integer_weights
                         ? static_cast<double>(rng.UniformInt(1, 50))
                         : rng.UniformDouble(0.01, 25.0);
          edges.push_back(WeightedEdge{u, v, w});
        }
      }
    }
    MatchingResult expected =
        BruteForceMaxWeightMatching(param.num_vertices, edges);
    MatchingResult actual = SolveBlossom(param.num_vertices, edges);
    ExpectValidMatching(param.num_vertices, actual);
    EXPECT_NEAR(actual.total_weight, expected.total_weight, 1e-5)
        << "trial " << trial << " n=" << param.num_vertices
        << " p=" << param.edge_prob;
    // Verify the reported weight equals the weight of the reported mates.
    std::vector<std::vector<double>> w(
        static_cast<std::size_t>(param.num_vertices),
        std::vector<double>(static_cast<std::size_t>(param.num_vertices), 0.0));
    for (const WeightedEdge& e : edges) {
      w[static_cast<std::size_t>(e.u)][static_cast<std::size_t>(e.v)] =
          std::max(w[static_cast<std::size_t>(e.u)][static_cast<std::size_t>(e.v)], e.w);
      w[static_cast<std::size_t>(e.v)][static_cast<std::size_t>(e.u)] =
          std::max(w[static_cast<std::size_t>(e.v)][static_cast<std::size_t>(e.u)], e.w);
    }
    double mates_weight = 0.0;
    for (int v = 0; v < param.num_vertices; ++v) {
      int m = actual.mate[static_cast<std::size_t>(v)];
      if (m > v) mates_weight += w[static_cast<std::size_t>(v)][static_cast<std::size_t>(m)];
    }
    EXPECT_NEAR(mates_weight, actual.total_weight, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, MatchingPropertyTest,
    ::testing::Values(RandomGraphCase{4, 0.5, true}, RandomGraphCase{5, 0.6, true},
                      RandomGraphCase{6, 0.5, true}, RandomGraphCase{7, 0.4, true},
                      RandomGraphCase{8, 0.5, true}, RandomGraphCase{9, 0.35, true},
                      RandomGraphCase{10, 0.3, true}, RandomGraphCase{10, 0.8, true},
                      RandomGraphCase{12, 0.25, true}, RandomGraphCase{12, 0.6, true},
                      RandomGraphCase{6, 0.5, false}, RandomGraphCase{9, 0.4, false},
                      RandomGraphCase{11, 0.5, false}, RandomGraphCase{13, 0.4, false}));

TEST(GreedyMatcher, HalfApproximationOnRandomGraphs) {
  Rng rng(777);
  for (int trial = 0; trial < 100; ++trial) {
    int n = rng.UniformInt(2, 12);
    std::vector<WeightedEdge> edges;
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.UniformDouble() < 0.5) {
          edges.push_back(WeightedEdge{u, v, rng.UniformDouble(0.1, 10.0)});
        }
      }
    }
    MatchingResult opt = BruteForceMaxWeightMatching(n, edges);
    MatchingResult greedy = GreedyMaxWeightMatching(n, edges);
    EXPECT_GE(greedy.total_weight + 1e-9, 0.5 * opt.total_weight);
    EXPECT_LE(greedy.total_weight, opt.total_weight + 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Randomized cross-validation beyond the brute force's reach: the edge-list
// matcher against the former dense O(V³) matcher (tests/oracles/). Tie-heavy
// weights give many equal-weight optima, so only the weight must agree; the
// mate must be a valid matching over input edges and must not depend on the
// order edges were added.
// ---------------------------------------------------------------------------

void ExpectMatchesDenseOracle(int n, const std::vector<WeightedEdge>& edges, Rng* rng,
                              int trial) {
  DenseMaxWeightMatcher dense(n);
  for (const WeightedEdge& e : edges) dense.AddEdge(e.u, e.v, e.w);
  const MatchingResult expected = dense.Solve();
  const MatchingResult actual = SolveBlossom(n, edges);
  ASSERT_EQ(actual.total_weight_scaled, expected.total_weight_scaled)
      << "trial " << trial << " n=" << n << " edges=" << edges.size();

  // Every matched pair is an input edge of positive weight, and the pairs'
  // scaled weights add up to the reported total.
  ExpectValidMatching(n, actual);
  std::map<std::pair<int, int>, std::int64_t> best;
  for (const WeightedEdge& e : edges) {
    if (e.u == e.v || e.w <= 0.0) continue;
    std::int64_t scaled = std::llround(e.w * MaxWeightMatcher::kDefaultScale);
    std::int64_t& slot = best[{std::min(e.u, e.v), std::max(e.u, e.v)}];
    slot = std::max(slot, scaled);
  }
  std::int64_t mates_weight = 0;
  for (int v = 0; v < n; ++v) {
    int m = actual.mate[static_cast<std::size_t>(v)];
    if (m <= v) continue;
    auto it = best.find({v, m});
    ASSERT_NE(it, best.end()) << "trial " << trial << " matched non-edge " << v << "-" << m;
    mates_weight += it->second;
  }
  EXPECT_EQ(mates_weight, actual.total_weight_scaled) << "trial " << trial;

  std::vector<WeightedEdge> shuffled = edges;
  rng->Shuffle(&shuffled);
  for (WeightedEdge& e : shuffled) {
    if (rng->Bernoulli(0.5)) std::swap(e.u, e.v);
  }
  EXPECT_EQ(SolveBlossom(n, shuffled).mate, actual.mate) << "trial " << trial;
}

TEST(MaxWeightMatcher, EqualsDenseOracleOnLargeGraphs) {
  Rng rng(20260);
  for (int trial = 0; trial < 160; ++trial) {
    const int n = rng.UniformInt(20, 300);
    const bool tie_heavy = trial % 2 == 0;
    const double degree = rng.UniformDouble(1.0, 12.0);
    std::vector<WeightedEdge> edges;
    const int num_edges = static_cast<int>(degree * n / 2);
    for (int i = 0; i < num_edges; ++i) {
      int u = rng.UniformInt(0, n - 1);
      int v = rng.Bernoulli(0.02) ? u : rng.UniformInt(0, n - 1);  // Self-loops.
      double w = tie_heavy ? static_cast<double>(rng.UniformInt(1, 5))
                           : rng.UniformDouble(0.01, 25.0);
      if (rng.Bernoulli(0.05)) w = rng.Bernoulli(0.5) ? 0.0 : -w;  // Ignored.
      edges.push_back(WeightedEdge{u, v, w});
      if (rng.Bernoulli(0.05)) {  // A parallel edge, reversed.
        edges.push_back(WeightedEdge{v, u, tie_heavy ? w : rng.UniformDouble(0.01, 25.0)});
      }
    }
    ExpectMatchesDenseOracle(n, edges, &rng, trial);
  }
}

// Dense graphs (mean degree 25-400), where the matcher solves on each
// vertex's 8 heaviest edges and must repair the optimal edges that core
// misses: uniform weights, tie-heavy weights (the core's ties go to the lower
// edge id), and hub graphs, where every vertex's heaviest edges run to a few
// hubs that can take only one partner each.
TEST(MaxWeightMatcher, SparseCoreRepairEqualsDenseOracleOnDenseGraphs) {
  Rng rng(20261);
  for (int trial = 0; trial < 24; ++trial) {
    const int n = rng.UniformInt(50, 400);
    const double density = rng.UniformDouble(0.5, 1.0);
    const int kind = trial % 3;
    const int hubs = rng.UniformInt(8, 12);
    std::vector<WeightedEdge> edges;
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (!rng.Bernoulli(density)) continue;
        double w = rng.UniformDouble(0.01, 25.0);
        if (kind == 1) w = static_cast<double>(rng.UniformInt(1, 5));
        if (kind == 2 && u < hubs) w += 30.0;
        edges.push_back(WeightedEdge{u, v, w});
      }
    }
    ExpectMatchesDenseOracle(n, edges, &rng, trial);
  }
}

// Gives every vertex in `ends` an edge of weight w to each of the 8 decoys
// first..first+7, each held by a private partner first+8..first+15 at weight
// 100. Every optimum keeps the decoys there, and an edge lighter than w at an
// end ranks 9th or lower there, so it joins the core only if the other end
// ranks it in its top 8.
void AddDecoys(const std::vector<int>& ends, int first, double w,
               std::vector<WeightedEdge>* edges) {
  for (int d = first; d < first + 8; ++d) {
    for (int end : ends) edges->push_back(WeightedEdge{end, d, w});
    edges->push_back(WeightedEdge{d, d + 8, 100.0});
  }
}

// A clique on vertices first..n-1 with weights in [1, 2]: it keeps the core
// under an eighth of the edges, so the core is really sparse.
void AddFillerClique(int first, int n, std::vector<WeightedEdge>* edges) {
  for (int u = first; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      edges->push_back(WeightedEdge{u, v, 1.0 + ((u * 31 + v * 17) % 101) / 100.0});
    }
  }
}

// Edge 0-1 (weight 15) ranks 9th at both ends behind decoys 2..9 and misses
// the core; every optimum matches it.
TEST(MaxWeightMatcher, RepairAddsOptimalEdgeRankedBelowEighthAtBothEnds) {
  const int n = 18 + 160;
  std::vector<WeightedEdge> edges = {{0, 1, 15.0}};
  AddDecoys({0, 1}, 2, 20.0, &edges);
  AddFillerClique(18, n, &edges);
  const MatchingResult r = SolveBlossom(n, edges);
  EXPECT_EQ(r.mate[0], 1);
  for (int d = 2; d < 10; ++d) EXPECT_EQ(r.mate[static_cast<std::size_t>(d)], d + 8);
  Rng rng(5);
  ExpectMatchesDenseOracle(n, edges, &rng, 0);
}

// The warm restart after a repair pass, one case per branch. Each graph
// takes at least one repair pass.

// Triangle 1-2-3 (weight 30) with the pendant edge 0-1 ends the core solve
// as a blossom with a positive dual, vertex 2 matched inside it. The missed
// edge 2-4 joins two matched vertices, so the restart dissolves the blossom
// before it raises vertex 2. The optimum is 2-4 and 1-3.
TEST(MaxWeightMatcher, RestartDissolvesBlossomAroundViolatingEdge) {
  const int n = 22 + 160;
  std::vector<WeightedEdge> edges = {{1, 2, 30.0}, {2, 3, 30.0}, {1, 3, 30.0},
                                     {0, 1, 20.0}, {2, 4, 40.0}, {4, 5, 12.0}};
  AddDecoys({2, 4}, 6, 50.0, &edges);
  AddFillerClique(22, n, &edges);
  const MatchingResult r = SolveBlossom(n, edges);
  EXPECT_EQ(r.mate[2], 4);
  EXPECT_EQ(r.mate[1], 3);
  EXPECT_EQ(r.mate[0], -1);
  EXPECT_EQ(r.mate[5], -1);
  Rng rng(6);
  ExpectMatchesDenseOracle(n, edges, &rng, 0);
}

// The core matches 0-2 and 1-3; the missed edge 0-1 joins two matched
// vertices, so the raised end loses its mate and the other end's mate must
// give way. Weights one scaled unit off the dollar grid leave odd duals, so
// the restart also evens out its roots' parity.
TEST(MaxWeightMatcher, RestartRaisesOneOfTwoMatchedEnds) {
  const double unit = 1.0 / MaxWeightMatcher::kDefaultScale;
  const int n = 20 + 160;
  std::vector<WeightedEdge> edges = {
      {0, 1, 40.0 + unit}, {0, 2, 12.0}, {1, 3, 12.0 + 3 * unit}};
  AddDecoys({0, 1}, 4, 50.0, &edges);
  AddFillerClique(20, n, &edges);
  const MatchingResult r = SolveBlossom(n, edges);
  EXPECT_EQ(r.mate[0], 1);
  EXPECT_EQ(r.mate[2], -1);
  EXPECT_EQ(r.mate[3], -1);
  Rng rng(7);
  ExpectMatchesDenseOracle(n, edges, &rng, 0);
}

// Vertex 0 ends the core solve exposed at dual 0 and vertex 1 matched to 2;
// the restart raises 0, whose tree then pushes 2 out.
TEST(MaxWeightMatcher, RestartRaisesExposedEndAtDualZero) {
  const int n = 20 + 160;
  std::vector<WeightedEdge> edges = {{0, 1, 40.0}, {1, 2, 12.0}};
  AddDecoys({0, 1}, 4, 50.0, &edges);
  AddFillerClique(20, n, &edges);
  const MatchingResult r = SolveBlossom(n, edges);
  EXPECT_EQ(r.mate[0], 1);
  EXPECT_EQ(r.mate[2], -1);
  Rng rng(8);
  ExpectMatchesDenseOracle(n, edges, &rng, 0);
}

// Edges 0-1, 0-2 and 0-3 all miss the core and all violate, so the restart
// raises vertex 0 three times; only the heaviest may stay matched.
TEST(MaxWeightMatcher, RestartRepairsSeveralViolatingEdgesAtOneVertex) {
  const int n = 20 + 160;
  std::vector<WeightedEdge> edges = {{0, 1, 15.0}, {0, 2, 16.0}, {0, 3, 17.0}};
  AddDecoys({0, 1, 2, 3}, 4, 20.0, &edges);
  AddFillerClique(20, n, &edges);
  const MatchingResult r = SolveBlossom(n, edges);
  EXPECT_EQ(r.mate[0], 3);
  EXPECT_EQ(r.mate[1], -1);
  EXPECT_EQ(r.mate[2], -1);
  Rng rng(9);
  ExpectMatchesDenseOracle(n, edges, &rng, 0);
}

// A chain of three repair passes: the core matches 0-2, 1-3 and 4-5. Pass 1
// adds 0-1, which frees 2 and 3; pass 2 adds 2-4, which frees 5; pass 3 adds
// 5-3. Edges 0-1, 2-4 and 3-5 rank below 8 decoys at both ends.
TEST(MaxWeightMatcher, RepairChainTakesThreeWarmRestarts) {
  const int n = 38 + 160;
  std::vector<WeightedEdge> edges = {{0, 1, 40.0}, {0, 2, 12.0}, {1, 3, 12.0},
                                     {2, 4, 10.0}, {4, 5, 11.5}, {3, 5, 2.0}};
  AddDecoys({0, 1}, 6, 50.0, &edges);
  AddDecoys({2, 3, 4, 5}, 22, 11.0, &edges);
  AddFillerClique(38, n, &edges);
  const MatchingResult r = SolveBlossom(n, edges);
  EXPECT_EQ(r.mate[0], 1);
  EXPECT_EQ(r.mate[2], 4);
  EXPECT_EQ(r.mate[3], 5);
  Rng rng(10);
  ExpectMatchesDenseOracle(n, edges, &rng, 0);
}

}  // namespace
}  // namespace bundlemine
