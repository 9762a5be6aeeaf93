// Weighted set packing solvers (paper Section 5.2). Test-only: the library
// solves the "Optimal" column with ilp/partition_dp.h, and ilp_test.cc
// cross-checks that DP against these solvers.
//
// The paper reduces pure bundling over an enumerated candidate-bundle pool to
// weighted set packing and solves it two ways: exactly with a commercial ILP
// solver (Gurobi) and approximately with the greedy highest-average-weight
// heuristic (√N approximation bound, Chandra & Halldórsson). Gurobi is not
// redistributable, so this module provides:
//
//   * SolveExact        — a branch-and-bound ILP specialized to set packing
//                          (binary variables, ≤1 cover constraints) with an
//                          admissible per-item fractional bound;
//   * SolveGreedy       — the paper's greedy: repeatedly take the available
//                          set with the highest average weight per item;
//   * SolveBruteForce   — exhaustive search over set subsets (test oracle).
//
// All three return identical optima on small instances (see ilp_test.cc),
// which is the property the paper relies on for its "Optimal" column.

#ifndef BUNDLEMINE_TESTS_ORACLES_SET_PACKING_H_
#define BUNDLEMINE_TESTS_ORACLES_SET_PACKING_H_

#include <cstdint>
#include <vector>

namespace bundlemine {

/// A weighted set packing instance over items 0..num_items-1.
struct SetPackingInstance {
  int num_items = 0;
  /// Each candidate set: sorted, distinct item ids.
  std::vector<std::vector<int>> sets;
  /// Positive weight per candidate set.
  std::vector<double> weights;
};

/// Solver outcome.
struct SetPackingSolution {
  /// Indices into instance.sets of the chosen (pairwise disjoint) sets.
  std::vector<int> selected;
  double total_weight = 0.0;
  /// False when a node/time budget stopped the exact search early.
  bool proven_optimal = true;
  std::int64_t nodes_explored = 0;
};

/// Greedy tie-break / ratio used by SolveGreedy.
enum class GreedyRatio {
  kAveragePerItem,  ///< w / |b| — the rule the paper describes.
  kSqrtSize,        ///< w / √|b| — the rule carrying the √N guarantee.
};

/// Exact branch-and-bound. `max_nodes` bounds the search tree (0 = no limit);
/// when exceeded, the incumbent is returned with proven_optimal = false.
SetPackingSolution SolveExact(const SetPackingInstance& instance,
                              std::int64_t max_nodes = 0);

/// Greedy approximation.
SetPackingSolution SolveGreedy(const SetPackingInstance& instance,
                               GreedyRatio ratio = GreedyRatio::kAveragePerItem);

/// Exhaustive 2^K oracle; requires instance.sets.size() ≤ 24.
SetPackingSolution SolveBruteForce(const SetPackingInstance& instance);

/// Validates that `selected` indexes pairwise-disjoint sets of the instance.
bool IsFeasiblePacking(const SetPackingInstance& instance,
                       const std::vector<int>& selected);

}  // namespace bundlemine

#endif  // BUNDLEMINE_TESTS_ORACLES_SET_PACKING_H_
