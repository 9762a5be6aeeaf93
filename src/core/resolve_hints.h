// Re-solve hints threaded through SolveContext.
//
// The streaming market's re-solve path (Engine::Resolve) hands each cell's
// solver a ResolveHints: the previous solve's pair outcomes (every round,
// keyed by merge tree), a mask of items touched since that solve, and the
// maintained transaction view.
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

namespace bundlemine {

class TransactionDb;      // mining/transactions.h
struct FrequentItemset;  // mining/transactions.h

/// Maximal frequent itemsets, shared read-only by every cell that mines the
/// same transactions at the same support.
using MaximalItemsets = std::shared_ptr<const std::vector<FrequentItemset>>;

/// Runs one complete (never deadline-stopped) mine.
using ItemsetMiner = std::function<MaximalItemsets()>;

/// Source of a cell's maximal itemsets at min_support_count: shared ones
/// when another cell over the same transactions mined them, otherwise
/// `mine`'s result.
using ItemsetSource = std::function<MaximalItemsets(int min_support_count,
                                                    const ItemsetMiner& mine)>;

/// Cache of one SolveMatching run's pair evaluations, valid in every
/// round of the next solve of the same cell.
///
/// Offers are named by merge-tree nodes. Leaves 0..num_leaves-1 are the
/// items; inner node num_leaves + k is the solve's k-th merge, recorded as
/// its ordered (child1, child2), so in the recording solve a node id equals
/// the offer index. A later solve maps each of its offers to the prior node
/// built from the same children, in the same order, out of untouched items
/// (FindLeaf, FindInner). Such an offer's WTP vectors, price, payments and
/// standalone revenue are bit-identical to the recorded one, and
/// EvaluatePair is a pure function of the two offers plus cell-fixed
/// configuration, so a cached outcome for two mapped offers is exact.
///
/// Outcomes are keyed by the ordered pair of node ids: a swapped pair is a
/// miss, because MergeGain is not proven bit-symmetric. They are stored as
/// two flat columns sorted by key: the priced pairs with their edge, and the
/// bare keys of pairs without a merge gain (the majority). A solve appends
/// rows in generation order, round after round, and Finish sorts them once.
class MatchingPairCache {
 public:
  /// One evaluated pair: either "no merge gain" or the priced edge. `value`
  /// is the merged offer's standalone revenue under pure bundling (the gain
  /// is recomputed from it) and the merge gain under mixed bundling (whose
  /// merged revenue is always 0).
  struct Outcome {
    bool has_gain = false;
    double value = 0.0;
    double price = 0.0;
    double buyers = 0.0;
  };

  std::size_t size() const { return gains_.size() + no_gain_.size(); }

  /// Starts recording a solve over `num_leaves` items. The columns are
  /// reserved at `prior`'s sizes (null: none), which a resolve after a small
  /// delta matches almost exactly.
  void Begin(int num_leaves, const MatchingPairCache* prior) {
    *this = MatchingPairCache();
    num_leaves_ = num_leaves;
    if (prior == nullptr) return;
    inner_.reserve(prior->inner_.size());
    gains_.reserve(prior->gains_.size());
    no_gain_.reserve(prior->no_gain_.size());
  }

  /// Records the next merge of (child1, child2) and returns its node id.
  int AddInner(int child1, int child2) {
    const int id = num_leaves_ + static_cast<int>(inner_.size());
    inner_.push_back(InnerRow{Key(child1, child2), id});
    return id;
  }

  /// Appends the pair's outcome.
  void Record(int node_a, int node_b, const Outcome& outcome) {
    const std::uint64_t key = Key(node_a, node_b);
    if (outcome.has_gain) {
      gains_.push_back(
          GainRow{key, outcome.value, outcome.price, outcome.buyers});
    } else {
      no_gain_.push_back(key);
    }
  }

  /// Ends the recording solve: sorts every column for lookup and releases
  /// the spare capacity. Without stale-edge pruning a solve prices an
  /// unchanged pair again in every round, so duplicate keys collapse to one.
  void Finish() {
    auto by_key = [](const auto& x, const auto& y) { return x.key < y.key; };
    auto same_key = [](const auto& x, const auto& y) { return x.key == y.key; };
    std::sort(inner_.begin(), inner_.end(), by_key);
    std::sort(gains_.begin(), gains_.end(), by_key);
    std::sort(no_gain_.begin(), no_gain_.end());
    gains_.erase(std::unique(gains_.begin(), gains_.end(), same_key),
                 gains_.end());
    no_gain_.erase(std::unique(no_gain_.begin(), no_gain_.end()),
                   no_gain_.end());
    inner_.shrink_to_fit();
    gains_.shrink_to_fit();
    no_gain_.shrink_to_fit();
  }

  /// The leaf of `item`, or -1 when the recording solve had no such item.
  int FindLeaf(int item) const {
    return item >= 0 && item < num_leaves_ ? item : -1;
  }

  /// The node recorded as the merge of (child1, child2) in that order, or
  /// -1 when there is none or either child is -1.
  int FindInner(int child1, int child2) const {
    if (child1 < 0 || child2 < 0) return -1;
    const std::uint64_t key = Key(child1, child2);
    auto row = std::lower_bound(
        inner_.begin(), inner_.end(), key,
        [](const InnerRow& r, std::uint64_t k) { return r.key < k; });
    return row != inner_.end() && row->key == key ? row->id : -1;
  }

  /// Cached outcome for the ordered node pair, or nullopt when not recorded.
  std::optional<Outcome> Find(int node_a, int node_b) const {
    const std::uint64_t key = Key(node_a, node_b);
    auto row = std::lower_bound(
        gains_.begin(), gains_.end(), key,
        [](const GainRow& r, std::uint64_t k) { return r.key < k; });
    if (row != gains_.end() && row->key == key) {
      return Outcome{true, row->value, row->price, row->buyers};
    }
    if (std::binary_search(no_gain_.begin(), no_gain_.end(), key)) {
      return Outcome{};
    }
    return std::nullopt;
  }

 private:
  struct InnerRow {
    std::uint64_t key;
    int id;
  };
  struct GainRow {
    std::uint64_t key;
    double value;
    double price;
    double buyers;
  };

  static std::uint64_t Key(int a, int b) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(b));
  }

  int num_leaves_ = 0;
  std::vector<InnerRow> inner_;
  std::vector<GainRow> gains_;
  std::vector<std::uint64_t> no_gain_;
};

/// Borrowed hint set for one cell's solve. Every member is optional and
/// owned by the caller (the Engine), which outlives the solve.
struct ResolveHints {
  /// Pair outcomes and merge tree of the previous solve of this cell, valid
  /// for offers built only from items untouched since. Null on the first
  /// solve.
  const MatchingPairCache* prior = nullptr;
  /// Sink the current solve fills with its merge tree and every round's
  /// outcomes for the next resolve. Null when the solve is not cacheable (e.g. deadline-limited).
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
