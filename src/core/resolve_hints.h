// Re-solve hints threaded through SolveContext.
//
// The streaming market's re-solve path (Engine::Resolve) hands each cell's
// solver a ResolveHints: the previous solve's round-1 pair outcomes, a mask
// of items touched since that solve, and the maintained transaction view.
// Every Engine solve, sweep cell and resolve cell also gets the shared
// frequent-itemset source, so cells over the same transactions mine once.
// Solvers that understand the hints skip work on clean data; solvers that
// ignore them stay correct, just slower. The invariant every hint user must
// preserve: the solve result is byte-identical to a batch solve of the same
// dataset — hints change only what gets recomputed, never what is computed.

#ifndef BUNDLEMINE_CORE_RESOLVE_HINTS_H_
#define BUNDLEMINE_CORE_RESOLVE_HINTS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/problem.h"
#include "util/check.h"

namespace bundlemine {

class TransactionDb;      // mining/transactions.h
struct FrequentItemset;  // mining/transactions.h

/// Maximal frequent itemsets, shared read-only by every cell that mines the
/// same transactions at the same support and miner.
using MaximalItemsets = std::shared_ptr<const std::vector<FrequentItemset>>;

/// Runs one complete (never deadline-stopped) mine.
using ItemsetMiner = std::function<MaximalItemsets()>;

/// Source of a cell's maximal itemsets at (min_support_count, miner): shared
/// ones when another cell over the same transactions mined them, otherwise
/// `mine`'s result.
using ItemsetSource = std::function<MaximalItemsets(
    int min_support_count, MinerEngine miner, const ItemsetMiner& mine)>;

/// Cache of round-1 MatchingBundler pair evaluations, keyed by the item-id
/// pair (round-1 offers are singletons, so offer index == item id and the
/// key survives across solves). EvaluatePair is a pure function of the two
/// items' WTP columns plus cell-fixed configuration, so a cached outcome is
/// exact whenever neither item was touched by a delta.
///
/// Stored as two flat columns sorted by key: the priced pairs with their
/// edge, and the bare keys of pairs without a merge gain (the majority).
/// Round 1 generates pairs in ascending (a, b) order, so recording appends
/// and lookup is a binary search.
class MatchingPairCache {
 public:
  /// One evaluated pair: either "no merge gain" or the full priced edge.
  struct Outcome {
    bool has_gain = false;
    double gain = 0.0;
    double price = 0.0;
    double revenue = 0.0;
    double buyers = 0.0;
  };

  std::size_t size() const { return gains_.size() + no_gain_.size(); }

  /// Appends the pair's outcome. Pairs must arrive in strictly ascending
  /// (a, b) order.
  void Record(int a, int b, const Outcome& outcome) {
    const std::uint64_t key = Key(a, b);
    BM_CHECK(size() == 0 || key > last_key_);
    last_key_ = key;
    if (outcome.has_gain) {
      gains_.push_back(GainRow{key, outcome.gain, outcome.price,
                               outcome.revenue, outcome.buyers});
    } else {
      no_gain_.push_back(key);
    }
  }

  /// Cached outcome for the pair, or nullopt when not recorded.
  std::optional<Outcome> Find(int a, int b) const {
    const std::uint64_t key = Key(a, b);
    auto row = std::lower_bound(
        gains_.begin(), gains_.end(), key,
        [](const GainRow& r, std::uint64_t k) { return r.key < k; });
    if (row != gains_.end() && row->key == key) {
      return Outcome{true, row->gain, row->price, row->revenue, row->buyers};
    }
    if (std::binary_search(no_gain_.begin(), no_gain_.end(), key)) {
      return Outcome{};
    }
    return std::nullopt;
  }

 private:
  struct GainRow {
    std::uint64_t key;
    double gain;
    double price;
    double revenue;
    double buyers;
  };

  static std::uint64_t Key(int a, int b) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(b));
  }

  std::vector<GainRow> gains_;
  std::vector<std::uint64_t> no_gain_;
  std::uint64_t last_key_ = 0;
};

/// Borrowed hint set for one cell's solve. Every member is optional and
/// owned by the caller (the Engine), which outlives the solve.
struct ResolveHints {
  /// Round-1 pair outcomes from the previous solve of this cell, valid for
  /// pairs of items untouched since. Null on the first solve.
  const MatchingPairCache* prior = nullptr;
  /// Sink the current solve fills with its round-1 outcomes for the next
  /// resolve. Null when the solve is not cacheable (e.g. deadline-limited).
  MatchingPairCache* fill = nullptr;
  /// dirty_items[i] != 0 iff item i's audience, ratings, or price changed
  /// since `prior` was recorded. Sized num_items; null with null `prior`.
  const std::vector<char>* dirty_items = nullptr;
  /// Maintained transaction view of the market (bit-identical to
  /// TransactionDb::FromWtp of the cell's WTP matrix — positivity is
  /// λ-independent), sparing the frequent-itemset bundler its rebuild.
  const TransactionDb* transactions = nullptr;
  /// Where the frequent-itemset bundler gets its candidates. Null, or a
  /// deadline-bound solve: it mines locally.
  ItemsetSource itemsets;
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_CORE_RESOLVE_HINTS_H_
