// MAFIA-style maximal frequent itemset mining (Burdick, Calimlim & Gehrke,
// ICDM 2001) — the miner the paper uses to produce "Frequently Bought
// Together" candidate bundles (Section 6.1.3).
//
// Depth-first search over the itemset lattice with vertical bitmaps and the
// three classic prunings:
//   * PEP  (parent equivalence): a tail item whose conditional support equals
//     the head's support is moved into the head unconditionally;
//   * FHUT/HUTMFI lookahead: if head ∪ tail is frequent, the whole subtree
//     collapses into one maximal set;
//   * dynamic tail reordering by increasing support, which maximizes the
//     effectiveness of the lookahead.
// Maximality is enforced against the growing MFI list (subset subsumption).
//
// This is the library's only frequent-itemset miner. Its output equals
// maximal(Apriori frequent), asserted by tests against the Apriori oracle in
// tests/oracles/apriori.h, while it explores a small fraction of the lattice.

#ifndef BUNDLEMINE_MINING_MAFIA_H_
#define BUNDLEMINE_MINING_MAFIA_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "mining/transactions.h"

namespace bundlemine {

/// Limits of one mine.
struct MinerLimits {
  int min_support_count = 2;         ///< Absolute support threshold (≥ 1).
  std::size_t max_results = 200000;  ///< Safety valve; abort past this.
  /// Optional cooperative cancellation, checked once per DFS node. Returning
  /// true ends the mine early: every itemset already emitted is genuinely
  /// frequent, but the collection is no longer maximal-complete. Callers
  /// wire this to SolveContext deadlines via DeadlineStopCondition; leave
  /// empty for the usual unbounded mine.
  std::function<bool()> should_stop;
};

/// Mines all maximal frequent itemsets of `db` at limits.min_support_count,
/// sorted by items.
std::vector<FrequentItemset> MineMaximalFrequent(const TransactionDb& db,
                                                 const MinerLimits& limits);

}  // namespace bundlemine

#endif  // BUNDLEMINE_MINING_MAFIA_H_
