// Exhaustive candidate-bundle enumeration (paper Section 5.2 / 6.4).
//
// The weighted set packing route requires "enumerating and computing the
// revenues of all possible candidate bundles beforehand, a step that by
// itself has O(M · 2^N) complexity". This module performs that enumeration
// for small N: every non-empty subset of items is visited once via DFS with
// an incrementally maintained per-user WTP accumulator, and priced with the
// standard offer pricer.
//
// Memory is Θ(2^N) doubles for the output table (bitmask-indexed revenues);
// N is capped at 25 — the size at which the paper, too, declares the
// approach infeasible.

#ifndef BUNDLEMINE_ILP_BUNDLE_ENUMERATION_H_
#define BUNDLEMINE_ILP_BUNDLE_ENUMERATION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "data/wtp_matrix.h"
#include "pricing/offer_pricer.h"

namespace bundlemine {

/// Optional cooperative-cancellation hook for the enumeration/packing loops:
/// checked between pricing steps; returning true stops the loop early while
/// keeping its partial output structurally valid. Callers wire this to
/// SolveContext::DeadlineExceeded (see core/wsp_bundler.cc).
using StopCondition = std::function<bool()>;

/// Result of enumerating all 2^N − 1 candidate bundles.
struct BundleEnumeration {
  int num_items = 0;
  /// revenue[mask] = optimal single-offer revenue of the bundle whose item
  /// set is `mask` (index 0 unused).
  std::vector<double> revenue;
  /// Number of bundles priced (2^N − 1, less when `stopped`).
  std::int64_t bundles_priced = 0;
  /// True when a StopCondition cut the enumeration short; unpriced masks
  /// keep revenue 0 (a valid, pessimistic value for downstream packing).
  bool stopped = false;
};

/// Enumerates and prices every bundle over `wtp` (θ folded in through the
/// usual scale rule: singletons priced at raw WTP, larger bundles at
/// (1+θ)·raw). Requires wtp.num_items() ≤ 25. `ws` (optional) supplies the
/// pricing scratch buffers so the 2^N pricing calls do not allocate.
/// `should_stop` (optional) aborts the DFS early, leaving the remaining
/// entries at revenue 0.
BundleEnumeration EnumerateAllBundles(const WtpMatrix& wtp, double theta,
                                      const OfferPricer& pricer,
                                      PricingWorkspace* ws = nullptr,
                                      const StopCondition& should_stop = nullptr);

/// Greedy weighted set packing directly over a bitmask revenue table: pick
/// the best-ratio bundle disjoint from everything chosen so far, repeat.
/// Returns chosen masks; used for the paper's Greedy WSP baseline where the
/// candidate pool is all subsets. `average_per_item` selects w/|b| (paper)
/// versus w/√|b| (√N guarantee). `should_stop` (optional) ends the packing
/// after the current pick; uncovered items fall back to singletons in the
/// caller's assembly step.
std::vector<std::uint32_t> GreedyWspOverMasks(const std::vector<double>& revenue,
                                              int num_items,
                                              bool average_per_item = true,
                                              const StopCondition& should_stop = nullptr);

}  // namespace bundlemine

#endif  // BUNDLEMINE_ILP_BUNDLE_ENUMERATION_H_
