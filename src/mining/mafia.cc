#include "mining/mafia.h"

#include <algorithm>

#include "util/check.h"

namespace bundlemine {
namespace {

// Growing store of maximal frequent itemsets with per-item postings lists so
// that subsumption queries touch only candidates sharing an item instead of
// the whole MFI (the difference between minutes and milliseconds at low
// support thresholds).
class MfiStore {
 public:
  explicit MfiStore(int num_items, std::size_t max_results)
      : postings_(static_cast<std::size_t>(num_items)), max_results_(max_results) {}

  // True if `candidate` (sorted) is contained in a stored set.
  bool Subsumes(const std::vector<int>& candidate) const {
    if (candidate.empty()) return false;
    // Scan the shortest postings list among the candidate's items: a
    // superset must appear in every one of them.
    const std::vector<int>* shortest = nullptr;
    for (int item : candidate) {
      const auto& list = postings_[static_cast<std::size_t>(item)];
      if (shortest == nullptr || list.size() < shortest->size()) shortest = &list;
    }
    for (int idx : *shortest) {
      const FrequentItemset& m = sets_[static_cast<std::size_t>(idx)];
      if (m.items.empty()) continue;  // Tombstone.
      if (m.items.size() >= candidate.size() &&
          std::includes(m.items.begin(), m.items.end(), candidate.begin(),
                        candidate.end())) {
        return true;
      }
    }
    return false;
  }

  // Inserts a new maximal set, tombstoning any stored strict subsets.
  void Insert(std::vector<int> items, int support) {
    BM_CHECK_MSG(live_ < max_results_,
                 "maximal miner result explosion; raise min support");
    // Collect stored sets that could be subsets: they appear in a postings
    // list of one of the new set's items.
    for (int item : items) {
      for (int idx : postings_[static_cast<std::size_t>(item)]) {
        FrequentItemset& m = sets_[static_cast<std::size_t>(idx)];
        if (m.items.empty() || m.items.size() >= items.size()) continue;
        if (std::includes(items.begin(), items.end(), m.items.begin(),
                          m.items.end())) {
          m.items.clear();  // Tombstone; postings entries become no-ops.
          --live_;
        }
      }
    }
    int idx = static_cast<int>(sets_.size());
    for (int item : items) postings_[static_cast<std::size_t>(item)].push_back(idx);
    sets_.push_back(FrequentItemset{std::move(items), support});
    ++live_;
  }

  std::vector<FrequentItemset> TakeLive() {
    std::vector<FrequentItemset> out;
    out.reserve(live_);
    for (FrequentItemset& m : sets_) {
      if (!m.items.empty()) out.push_back(std::move(m));
    }
    return out;
  }

 private:
  std::vector<FrequentItemset> sets_;           // Tombstoned entries are empty.
  std::vector<std::vector<int>> postings_;      // item → indices into sets_.
  std::size_t max_results_;
  std::size_t live_ = 0;
};

struct MafiaState {
  const TransactionDb* db;
  MinerLimits limits;
  MfiStore store;

  MafiaState(const TransactionDb& database, const MinerLimits& lim)
      : db(&database), limits(lim),
        store(database.num_items(), lim.max_results) {}
};

void EmitMaximal(MafiaState* st, std::vector<int> items, int support) {
  std::sort(items.begin(), items.end());
  if (st->store.Subsumes(items)) return;
  st->store.Insert(std::move(items), support);
}

// head: current itemset; head_bm: its transaction bitmap; head_support: its
// support; tail: extension items, each individually frequent with head.
void Mine(MafiaState* st, std::vector<int>* head, const Bitset& head_bm,
          int head_support, std::vector<int> tail) {
  // Cooperative stop per DFS node: the MFI store only ever holds frequent
  // sets, so abandoning the rest of the lattice leaves a valid (if
  // incomplete) maximal collection behind.
  if (st->limits.should_stop && st->limits.should_stop()) return;

  const int minsup = st->limits.min_support_count;

  // Conditional supports for the tail; PEP moves support-preserving items
  // straight into the head: every maximal superset of the head contains a
  // support-equal item.
  struct TailEntry {
    int item;
    int support;
  };
  std::vector<TailEntry> entries;
  entries.reserve(tail.size());
  std::vector<int> pep_items;
  for (int x : tail) {
    int sup = static_cast<int>(head_bm.AndCount(st->db->Column(x)));
    if (sup < minsup) continue;
    if (sup == head_support) {
      pep_items.push_back(x);
    } else {
      entries.push_back(TailEntry{x, sup});
    }
  }
  // Fold PEP items into the head. Their bitmaps coincide with the head's on
  // its transactions, so the head bitmap is unchanged.
  for (int x : pep_items) head->push_back(x);

  if (entries.empty()) {
    if (!head->empty()) EmitMaximal(st, *head, head_support);
    for (std::size_t i = 0; i < pep_items.size(); ++i) head->pop_back();
    return;
  }

  // FHUT lookahead: if head ∪ tail is frequent, the entire subtree collapses
  // into one maximal set.
  Bitset all = head_bm;
  for (const TailEntry& e : entries) all.AndWith(st->db->Column(e.item));
  int all_sup = static_cast<int>(all.Count());
  if (all_sup >= minsup) {
    std::vector<int> full = *head;
    for (const TailEntry& e : entries) full.push_back(e.item);
    EmitMaximal(st, std::move(full), all_sup);
    for (std::size_t i = 0; i < pep_items.size(); ++i) head->pop_back();
    return;
  }

  // Dynamic reordering: ascending support first maximizes tail shrinkage.
  std::sort(entries.begin(), entries.end(), [](const TailEntry& a, const TailEntry& b) {
    if (a.support != b.support) return a.support < b.support;
    return a.item < b.item;
  });

  bool any_child = false;
  std::vector<int> probe;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    // HUTMFI pruning: skip the branch when head ∪ {x_i} ∪ rest-of-tail is
    // already covered by a known maximal set.
    probe = *head;
    for (std::size_t j = i; j < entries.size(); ++j) probe.push_back(entries[j].item);
    std::sort(probe.begin(), probe.end());
    if (st->store.Subsumes(probe)) {
      any_child = true;  // Covered elsewhere; head is not maximal here.
      continue;
    }

    Bitset child_bm(head_bm.size());
    Bitset::And(head_bm, st->db->Column(entries[i].item), &child_bm);
    head->push_back(entries[i].item);
    std::vector<int> child_tail;
    child_tail.reserve(entries.size() - i - 1);
    for (std::size_t j = i + 1; j < entries.size(); ++j) {
      child_tail.push_back(entries[j].item);
    }
    Mine(st, head, child_bm, entries[i].support, std::move(child_tail));
    head->pop_back();
    any_child = true;
  }

  if (!any_child && !head->empty()) EmitMaximal(st, *head, head_support);
  for (std::size_t i = 0; i < pep_items.size(); ++i) head->pop_back();
}

}  // namespace

std::vector<FrequentItemset> MineMaximalFrequent(const TransactionDb& db,
                                                 const MinerLimits& limits) {
  BM_CHECK_GE(limits.min_support_count, 1);
  MafiaState st(db, limits);

  std::vector<int> tail;
  for (int i = 0; i < db.num_items(); ++i) {
    if (db.ItemSupport(i) >= limits.min_support_count) tail.push_back(i);
  }
  if (tail.empty()) return {};

  Bitset all_transactions(static_cast<std::size_t>(db.num_transactions()));
  for (int t = 0; t < db.num_transactions(); ++t) {
    all_transactions.Set(static_cast<std::size_t>(t));
  }
  std::vector<int> head;
  Mine(&st, &head, all_transactions, db.num_transactions(), std::move(tail));

  std::vector<FrequentItemset> mfi = st.store.TakeLive();
  std::sort(mfi.begin(), mfi.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              return a.items < b.items;
            });
  return mfi;
}

}  // namespace bundlemine
