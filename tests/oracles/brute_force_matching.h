// Test-only oracle: exact maximum-weight matching by DP over vertex subsets,
// for checking the blossom matcher on small graphs.

#ifndef BUNDLEMINE_TESTS_ORACLES_BRUTE_FORCE_MATCHING_H_
#define BUNDLEMINE_TESTS_ORACLES_BRUTE_FORCE_MATCHING_H_

#include <vector>

#include "matching/max_weight_matching.h"
#include "matching/simple_matchers.h"

namespace bundlemine {

/// Exact maximum-weight matching by DP over vertex subsets — O(2^V · V).
/// Requires num_vertices ≤ 24.
MatchingResult BruteForceMaxWeightMatching(int num_vertices,
                                           const std::vector<WeightedEdge>& edges);

}  // namespace bundlemine

#endif  // BUNDLEMINE_TESTS_ORACLES_BRUTE_FORCE_MATCHING_H_
