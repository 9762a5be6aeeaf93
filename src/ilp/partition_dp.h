// Exact optimal bundle partition by dynamic programming over item subsets.
//
// For the "Optimal" column of Tables 4/5 the paper solves weighted set
// packing over all 2^N − 1 candidate bundles with an ILP. Because every item
// can always be sold as a singleton (weight ≥ 0), the optimal packing is
// WLOG a partition, and the specialized DP
//
//     dp[S] = max over bundles b ⊆ S containing the lowest item of S:
//             revenue[b] + dp[S \ b]
//
// finds it exactly in O(3^N) time and Θ(2^N) memory — the same optimum as
// the general set-packing branch-and-bound that ilp_test.cc cross-checks it
// against (tests/oracles/set_packing.h), but fast enough to push the exact
// frontier to N = 20 on a laptop. Like the paper's ILP, it falls off a cliff
// at N = 25 (8.5e11 transitions), which bench_table45_wsp reports rather than
// attempts.

#ifndef BUNDLEMINE_ILP_PARTITION_DP_H_
#define BUNDLEMINE_ILP_PARTITION_DP_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace bundlemine {

/// Result of the exact partition DP.
struct PartitionResult {
  /// Chosen bundles as item bitmasks (disjoint, covering all items with
  /// positive-revenue coverage; zero-revenue items come back as singletons).
  std::vector<std::uint32_t> bundles;
  double total_revenue = 0.0;
  /// True when the stop condition interrupted the DP; the partition is then
  /// assembled from the solved prefix with singleton fallbacks and is valid
  /// but not necessarily optimal.
  bool stopped = false;
};

/// Computes the revenue-optimal partition of `num_items` items given the
/// bitmask-indexed `revenue` table (from EnumerateAllBundles).
/// `max_bundle_size` limits bundle cardinality (0 = unlimited — the paper's
/// k = ∞ default). Requires num_items ≤ 25 and revenue.size() == 2^num_items.
/// `should_stop` (optional, checked at a coarse stride) aborts the DP early;
/// the returned partition stays feasible via singleton fallbacks.
PartitionResult SolveOptimalPartition(
    const std::vector<double>& revenue, int num_items, int max_bundle_size = 0,
    const std::function<bool()>& should_stop = nullptr);

}  // namespace bundlemine

#endif  // BUNDLEMINE_ILP_PARTITION_DP_H_
