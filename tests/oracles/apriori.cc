#include "oracles/apriori.h"

#include <algorithm>

#include "util/check.h"

namespace bundlemine {
namespace {

// True if every (k-1)-subset of `candidate` appears in `prev_level`
// (which holds the frequent (k-1)-itemsets, sorted lexicographically).
bool AllSubsetsFrequent(const std::vector<int>& candidate,
                        const std::vector<std::vector<int>>& prev_level) {
  std::vector<int> sub(candidate.size() - 1);
  for (std::size_t skip = 0; skip < candidate.size(); ++skip) {
    std::size_t t = 0;
    for (std::size_t i = 0; i < candidate.size(); ++i) {
      if (i != skip) sub[t++] = candidate[i];
    }
    if (!std::binary_search(prev_level.begin(), prev_level.end(), sub)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<FrequentItemset> MineFrequentApriori(const TransactionDb& db,
                                                 int min_support_count) {
  BM_CHECK_GE(min_support_count, 1);
  std::vector<FrequentItemset> result;

  // Level 1.
  std::vector<std::vector<int>> level;  // Sorted list of frequent itemsets.
  std::vector<Bitset> level_bitmaps;
  for (int i = 0; i < db.num_items(); ++i) {
    int sup = db.ItemSupport(i);
    if (sup >= min_support_count) {
      result.push_back(FrequentItemset{{i}, sup});
      level.push_back({i});
      level_bitmaps.push_back(db.Column(i));
    }
  }

  int k = 2;
  while (!level.empty()) {
    std::vector<std::vector<int>> next_level;
    std::vector<Bitset> next_bitmaps;
    // Prefix join: two frequent (k-1)-itemsets sharing the first k-2 items.
    for (std::size_t a = 0; a < level.size(); ++a) {
      for (std::size_t b = a + 1; b < level.size(); ++b) {
        if (!std::equal(level[a].begin(), level[a].end() - 1, level[b].begin(),
                        level[b].end() - 1)) {
          break;  // Lexicographic order ⇒ no later b shares the prefix.
        }
        std::vector<int> candidate = level[a];
        candidate.push_back(level[b].back());
        if (k > 2 && !AllSubsetsFrequent(candidate, level)) continue;
        std::size_t sup = level_bitmaps[a].AndCount(db.Column(candidate.back()));
        if (static_cast<int>(sup) >= min_support_count) {
          result.push_back(FrequentItemset{candidate, static_cast<int>(sup)});
          next_level.push_back(candidate);
          Bitset bm(level_bitmaps[a].size());
          Bitset::And(level_bitmaps[a], db.Column(candidate.back()), &bm);
          next_bitmaps.push_back(std::move(bm));
        }
      }
    }
    level = std::move(next_level);
    level_bitmaps = std::move(next_bitmaps);
    ++k;
  }
  return result;
}

std::vector<FrequentItemset> FilterMaximal(std::vector<FrequentItemset> itemsets) {
  // Sort by size descending; an itemset is maximal iff no kept set contains it.
  std::sort(itemsets.begin(), itemsets.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              if (a.items.size() != b.items.size()) return a.items.size() > b.items.size();
              return a.items < b.items;
            });
  std::vector<FrequentItemset> maximal;
  for (const FrequentItemset& c : itemsets) {
    bool subsumed = false;
    for (const FrequentItemset& m : maximal) {
      if (m.items.size() <= c.items.size()) break;  // Sorted by size desc.
      if (std::includes(m.items.begin(), m.items.end(), c.items.begin(),
                        c.items.end())) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) maximal.push_back(c);
  }
  std::sort(maximal.begin(), maximal.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              return a.items < b.items;
            });
  return maximal;
}

}  // namespace bundlemine
