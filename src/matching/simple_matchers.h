// The greedy 1/2-approximate matcher, used as a scalability fallback and in
// the matching-oracle ablation (README, "Scenario engine": `matching-limit`
// 0; ablation 4 of bench/bench_ablations.cc). The exact brute-force oracle
// the tests compare the blossom matcher against is in tests/oracles/.

#ifndef BUNDLEMINE_MATCHING_SIMPLE_MATCHERS_H_
#define BUNDLEMINE_MATCHING_SIMPLE_MATCHERS_H_

#include <vector>

#include "matching/max_weight_matching.h"

namespace bundlemine {

/// Undirected weighted edge for the list-based matchers.
struct WeightedEdge {
  int u = 0;
  int v = 0;
  double w = 0.0;
};

/// Greedy matching: scan edges by decreasing weight, keep an edge when both
/// endpoints are free. Guarantees ≥ 1/2 of the optimal weight; O(E log E).
MatchingResult GreedyMaxWeightMatching(int num_vertices,
                                       const std::vector<WeightedEdge>& edges);

}  // namespace bundlemine

#endif  // BUNDLEMINE_MATCHING_SIMPLE_MATCHERS_H_
