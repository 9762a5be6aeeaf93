// Test-only oracle: Apriori frequent-itemset mining (Agrawal & Srikant,
// VLDB 1994), an implementation independent of the library's MAFIA-style
// maximal miner that randomized tests check it against: maximal(Apriori
// frequent) must equal MAFIA's output.
//
// Level-wise candidate generation with the classic prefix join + subset
// pruning, and bitmap-intersection support counting. It enumerates every
// frequent itemset, so it is only meant for small databases.

#ifndef BUNDLEMINE_TESTS_ORACLES_APRIORI_H_
#define BUNDLEMINE_TESTS_ORACLES_APRIORI_H_

#include <vector>

#include "mining/transactions.h"

namespace bundlemine {

/// All frequent itemsets at the given absolute support (≥ 1), smallest
/// first.
std::vector<FrequentItemset> MineFrequentApriori(const TransactionDb& db,
                                                 int min_support_count);

/// Filters a frequent-itemset collection down to its maximal members
/// (no frequent strict superset in the collection), sorted by items.
std::vector<FrequentItemset> FilterMaximal(std::vector<FrequentItemset> itemsets);

}  // namespace bundlemine

#endif  // BUNDLEMINE_TESTS_ORACLES_APRIORI_H_
