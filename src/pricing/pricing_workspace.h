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

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "data/wtp_matrix.h"

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
  /// Support union of a multi-way merge (MultiMergeGain, the pure
  /// FreqItemset audience): `users` holds its ids ascending and
  /// `user_row[id]` the id's index in `users`, -1 for ids outside it, so
  /// each side's entries land in their rows by one lookup. StageUnion
  /// fills both; ReleaseUnion restores `user_row` to all -1 for the next
  /// caller. `union_words` is StageUnion's dedup bitmap, all zero between
  /// calls.
  std::vector<std::int32_t> users;
  std::vector<std::int32_t> user_row;
  std::vector<std::uint64_t> union_words;
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

  /// Stages the union of the ids of vector_at(0) … vector_at(count − 1)
  /// into `users` and `user_row` in time linear in their entries plus the
  /// id span / 64: bits mark the ids, one scan over the words lists them.
  template <typename VectorAt>
  void StageUnion(std::size_t count, VectorAt vector_at) {
    users.clear();
    std::size_t lo = SIZE_MAX, hi = 0;
    for (std::size_t j = 0; j < count; ++j) {
      const std::vector<WtpEntry>& e = vector_at(j).entries();
      if (e.empty()) continue;
      lo = std::min(lo, static_cast<std::size_t>(e.front().id) >> 6);
      hi = std::max(hi, (static_cast<std::size_t>(e.back().id) >> 6) + 1);
    }
    if (lo >= hi) return;
    if (union_words.size() < hi) union_words.resize(hi, 0);
    if (user_row.size() < hi << 6) user_row.resize(hi << 6, -1);
    for (std::size_t j = 0; j < count; ++j) {
      for (const WtpEntry& e : vector_at(j).entries()) {
        union_words[static_cast<std::size_t>(e.id) >> 6] |= std::uint64_t{1}
                                                            << (e.id & 63);
      }
    }
    for (std::size_t k = lo; k < hi; ++k) {
      std::uint64_t word = union_words[k];
      union_words[k] = 0;
      while (word != 0) {
        const std::size_t id =
            (k << 6) + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        user_row[id] = static_cast<std::int32_t>(users.size());
        users.push_back(static_cast<std::int32_t>(id));
      }
    }
  }

  /// The row of `id` in the staged union, or -1 when it lies outside.
  std::int32_t RowOf(std::int32_t id) const {
    const std::size_t i = static_cast<std::size_t>(id);
    return i < user_row.size() ? user_row[i] : -1;
  }

  void ReleaseUnion() {
    for (std::int32_t id : users) user_row[static_cast<std::size_t>(id)] = -1;
  }
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_PRICING_PRICING_WORKSPACE_H_
