// Problem specification shared by every bundling algorithm.

#ifndef BUNDLEMINE_CORE_PROBLEM_H_
#define BUNDLEMINE_CORE_PROBLEM_H_

#include "data/wtp_matrix.h"
#include "pricing/adoption_model.h"
#include "pricing/mixed_pricer.h"

namespace bundlemine {

/// Pure bundling partitions the items (Problem 1); mixed bundling produces a
/// laminar family where bundles and their components co-exist (Problem 2).
enum class BundlingStrategy {
  kPure,
  kMixed,
};

/// The k-sized bundle configuration problem instance (paper Section 3.2) plus
/// the algorithmic knobs the evaluation sweeps.
struct BundleConfigProblem {
  /// Consumer willingness-to-pay matrix (not owned; must outlive the solve).
  const WtpMatrix* wtp = nullptr;

  /// Bundling coefficient θ of Eq. 1 (default 0 — independent items).
  double theta = 0.0;

  /// Maximum bundle size k; 0 means unconstrained (the paper's default).
  int max_bundle_size = 0;

  /// Pure vs mixed bundling.
  BundlingStrategy strategy = BundlingStrategy::kPure;

  /// Adoption model (step by default, matching γ = 1e6 in the paper).
  AdoptionModel adoption = AdoptionModel::Step();

  /// Price-grid resolution T (paper: 100).
  int price_levels = 100;

  /// First-iteration pruning: only consider item pairs sharing at least one
  /// interested consumer. Exact for θ ≤ 0; heuristic for θ > 0 (a bundle of
  /// disjoint audiences can still profit from a positive interaction term).
  bool prune_co_interest = true;

  /// Later-iteration pruning of Algorithm 1: only form edges incident to a
  /// vertex created in the previous round.
  bool prune_stale_edges = true;

  /// Vertex-count ceiling for the exact blossom matcher inside Algorithm 1;
  /// larger graphs fall back to the greedy 1/2-approximate matcher. The
  /// matcher's memory is O(V + E), so the ceiling only bounds its roughly
  /// V·E running time. 0 forces the greedy matcher everywhere (ablation).
  int exact_matching_limit = 4000;

  /// Stochastic composition of the mixed upgrade constraints (ablation).
  MixedComposition mixed_composition = MixedComposition::kMinSlack;

  /// Frequent-itemset baseline: minimum support as a fraction of consumers
  /// (paper: 0.1%) with an absolute floor of 5 transactions — the paper's
  /// effective count on the Amazon data (⌈0.001 · 4449⌉). The baseline
  /// mines maximal frequent itemsets with MAFIA (mining/mafia.h).
  double freq_min_support = 0.001;

  /// Returns the effective maximum bundle size (num_items when unconstrained).
  int EffectiveMaxSize() const {
    return max_bundle_size > 0 ? max_bundle_size : wtp->num_items();
  }
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_CORE_PROBLEM_H_
