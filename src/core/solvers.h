// The bundle-configuration algorithms, one free function each. The method
// table (core/bundler_registry.cc) binds them to method keys; callers go
// through SolveMethod, which applies the row's strategy and size cap and
// stamps the solution's method name and solve time, so no solver sets either.
//
// Every solver reads all its knobs from the problem and all per-solve
// runtime state (scratch buffers, rng, parallel width, deadline, stats) from
// the context, and returns the same solution for a serial and a threaded
// context.

#ifndef BUNDLEMINE_CORE_SOLVERS_H_
#define BUNDLEMINE_CORE_SOLVERS_H_

#include "core/problem.h"
#include "core/solution.h"
#include "core/solve_context.h"

namespace bundlemine {

/// Per-item pricing of the Components baseline (paper Table 2).
enum class ComponentPricing {
  kOptimal,    ///< Revenue-maximizing grid price per item.
  kListPrice,  ///< The dataset's list price (requires wtp.has_prices()).
};

/// The Components (non-bundling) baseline: sells every item individually.
BundleSolution SolveComponents(const BundleConfigProblem& problem,
                               SolveContext& context, ComponentPricing pricing);

/// Algorithm 1. Iteratively runs maximum-weight matching over the current
/// bundles: round 1 considers co-interested item pairs, each matched pair
/// collapses into a bundle vertex, and later rounds only introduce edges
/// incident to newly formed vertices (the paper's two pruning strategies,
/// both togglable through the problem). Stops when a round no longer
/// improves total revenue. Pure edges weigh the merged standalone revenue
/// minus the parts; mixed edges the incremental gain of offering the merged
/// bundle alongside its parts. With max_bundle_size = 2 a single round on
/// the full pair graph is the paper's optimal 2-sized configuration (Section
/// 5.1), exact because the blossom matcher is.
BundleSolution SolveMatching(const BundleConfigProblem& problem,
                             SolveContext& context);

/// Algorithm 2. Each iteration merges the one pair of current bundles with
/// the highest revenue gain and lets the new bundle take part at once.
/// Candidate gains live in a lazy max-heap; a merge only prices the new
/// bundle against the surviving offers (the paper's O(N) incremental step).
/// Stops when the best remaining gain is non-positive.
BundleSolution SolveGreedy(const BundleConfigProblem& problem,
                           SolveContext& context);

/// The "Frequently Bought Together" baseline (paper Section 6.1.3).
/// Candidates are the maximal frequent itemsets of the consumer transactions
/// (items with positive WTP), mined at the problem's minimum support. The
/// configuration picks the candidate with the highest gain over its
/// components, drops overlapping candidates, repeats, and sells every
/// uncovered item individually, whatever its support. Pure gain is the
/// standalone bundle revenue minus the component revenues; mixed gain is
/// the incremental gain of offering the itemset alongside its items.
BundleSolution SolveFreqItemset(const BundleConfigProblem& problem,
                                SolveContext& context);

/// Weighted set packing over the exhaustive enumeration of all 2^N − 1
/// candidate bundles (paper §5.2, §6.4); pure bundling only. Optimal WSP is
/// the exact revenue-optimal partition via subset DP, the specialized
/// equivalent of the paper's Gurobi ILP. The method table caps N.
BundleSolution SolveOptimalWsp(const BundleConfigProblem& problem,
                               SolveContext& context);

/// Greedy WSP over the same enumeration. The selection ratio
/// matters: with the paper's verbal rule (average weight per item, w/|b|,
/// `average_per_item`) a bundle never out-ranks its best component at
/// θ ≤ 0, so the greedy collapses towards Components. The √|b| ratio, the
/// Chandra–Halldórsson rule behind the √N guarantee the paper cites, lets
/// large bundles win early and reproduces Table 4's 10-13 point degradation.
BundleSolution SolveGreedyWsp(const BundleConfigProblem& problem,
                              SolveContext& context, bool average_per_item);

}  // namespace bundlemine

#endif  // BUNDLEMINE_CORE_SOLVERS_H_
