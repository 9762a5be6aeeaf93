// Reusable scratch buffers for the pricing kernels.
//
// Algorithm 1 prices O(n²) candidate merges per round; constructing fresh
// std::vectors inside OfferPricer / MixedPricer for every candidate dominated
// the hot path. A PricingWorkspace owns every buffer those kernels need; the
// workspace-taking overloads clear-and-refill the buffers instead of
// allocating, so after a brief warm-up (buffers grown to their high-water
// mark) a candidate evaluation performs zero heap allocations.
//
// Thread safety: a workspace is *not* thread-safe. Parallel solvers draw one
// workspace per worker from the SolveContext pool (src/core/solve_context.h).

#ifndef BUNDLEMINE_PRICING_PRICING_WORKSPACE_H_
#define BUNDLEMINE_PRICING_PRICING_WORKSPACE_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace bundlemine {

/// Scratch buffers shared by the OfferPricer / MixedPricer kernels. Contents
/// are unspecified between calls; every kernel fully (re)initializes the
/// buffers it touches, so reusing one workspace across calls is always safe
/// and results are independent of prior use.
struct PricingWorkspace {
  // --- OfferPricer ---------------------------------------------------------
  /// Staging buffer for effective (θ-scaled) WTP values of a merged audience.
  std::vector<double> values;
  /// α-scaled copy that the exact-step kernel sorts in place.
  std::vector<double> exact_values;
  /// Price-grid histogram: per-bucket audience count and WTP sum.
  std::vector<double> bucket_count;
  std::vector<double> bucket_wsum;
  /// Audience below the lowest grid level (sigmoid model handles directly).
  std::vector<double> below_grid;
  /// Welfare pricing: candidate price list.
  std::vector<double> candidates;

  /// Per-value grid bucket indices from kernels::ComputeBuckets
  /// (-1 below-grid, -2 non-positive value).
  std::vector<std::int32_t> buckets;
  /// Compacted non-empty bucket means / weights for the sigmoid scan.
  std::vector<double> bucket_mean;
  std::vector<double> bucket_weight;

  // --- Shared suffix scans (OfferPricer step mode, MixedPricer grids) ------
  std::vector<double> suffix_count;
  std::vector<double> suffix_base;

  // --- MixedPricer ---------------------------------------------------------
  /// (adoption threshold, forgone base payment) pairs for exact-step gain.
  std::vector<std::pair<double, double>> threshold_base;
  /// Flattened per-consumer state for the multi-way kernel.
  std::vector<double> consumer_state;
  /// Support-union user ids for MultiMergeGain.
  std::vector<std::int32_t> users;
  /// SoA staging for the two-way mixed kernels: raw WTP columns of each side
  /// over the support union, forgone base payments, effective α·θ-scaled
  /// columns, and adoption thresholds. The sparse path fills the first three
  /// in one forward merge over both sides' raw and payment vectors; the dense
  /// path fills them from the sides' SoA columns.
  std::vector<double> soa_raw1;
  std::vector<double> soa_raw2;
  std::vector<double> soa_base;
  std::vector<double> soa_aw1;
  std::vector<double> soa_aw2;
  std::vector<double> soa_awb;
  std::vector<double> thresholds;
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_PRICING_PRICING_WORKSPACE_H_
