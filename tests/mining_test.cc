// Unit tests for the mining substrate: bitsets, transaction DB, and the
// MAFIA-style maximal miner, cross-validated against the Apriori oracle
// (tests/oracles/apriori.h).

#include <algorithm>

#include "data/wtp_matrix.h"
#include "gtest/gtest.h"
#include "mining/bitset.h"
#include "mining/mafia.h"
#include "mining/transactions.h"
#include "oracles/apriori.h"
#include "util/rng.h"

namespace bundlemine {
namespace {

TEST(Bitset, SetTestCount) {
  Bitset b(130);
  EXPECT_EQ(b.Count(), 0u);
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 3u);
}

TEST(Bitset, AndOperations) {
  Bitset a(100), b(100);
  for (std::size_t i = 0; i < 100; i += 2) a.Set(i);
  for (std::size_t i = 0; i < 100; i += 3) b.Set(i);
  EXPECT_EQ(a.AndCount(b), 17u);  // Multiples of 6 in [0,100): 0,6,...,96.
  Bitset out(100);
  Bitset::And(a, b, &out);
  EXPECT_EQ(out.Count(), 17u);
  a.AndWith(b);
  EXPECT_TRUE(a == out);
}

TEST(TransactionDb, SupportCounts) {
  // Classic 5-transaction market-basket example.
  TransactionDb db = TransactionDb::FromTransactions(
      5, {{0, 1, 4}, {1, 3}, {1, 2}, {0, 1, 3}, {0, 2}});
  EXPECT_EQ(db.num_transactions(), 5);
  EXPECT_EQ(db.ItemSupport(0), 3);
  EXPECT_EQ(db.ItemSupport(1), 4);
  EXPECT_EQ(db.Support({0, 1}), 2);
  EXPECT_EQ(db.Support({1, 3}), 2);
  EXPECT_EQ(db.Support({0, 1, 4}), 1);
  EXPECT_EQ(db.Support({2, 3}), 0);
}

TEST(TransactionDb, FromWtpUsesPositiveEntries) {
  std::vector<std::tuple<UserId, ItemId, double>> triplets = {
      {0, 0, 5.0}, {0, 1, 3.0}, {1, 0, 2.0}};
  WtpMatrix wtp = WtpMatrix::FromTriplets(2, 2, triplets);
  TransactionDb db = TransactionDb::FromWtp(wtp);
  EXPECT_EQ(db.ItemSupport(0), 2);
  EXPECT_EQ(db.ItemSupport(1), 1);
  EXPECT_EQ(db.Support({0, 1}), 1);
}

TEST(Apriori, TextbookExample) {
  TransactionDb db = TransactionDb::FromTransactions(
      5, {{0, 1, 4}, {1, 3}, {1, 2}, {0, 1, 3}, {0, 2}});
  auto frequent = MineFrequentApriori(db, /*min_support_count=*/2);
  // Frequent: {0}:3 {1}:4 {2}:2 {3}:2 {0,1}:2 {1,3}:2 — and nothing else.
  ASSERT_EQ(frequent.size(), 6u);
  auto find = [&](std::vector<int> items) -> int {
    for (const auto& f : frequent) {
      if (f.items == items) return f.support;
    }
    return -1;
  };
  EXPECT_EQ(find({0}), 3);
  EXPECT_EQ(find({1}), 4);
  EXPECT_EQ(find({2}), 2);
  EXPECT_EQ(find({3}), 2);
  EXPECT_EQ(find({0, 1}), 2);
  EXPECT_EQ(find({1, 3}), 2);
  EXPECT_EQ(find({0, 4}), -1);
}

TEST(FilterMaximal, KeepsOnlyMaximalSets) {
  std::vector<FrequentItemset> sets = {
      {{0}, 5}, {{1}, 4}, {{0, 1}, 3}, {{2}, 2}, {{0, 1, 3}, 2}};
  auto maximal = FilterMaximal(sets);
  ASSERT_EQ(maximal.size(), 2u);
  EXPECT_EQ(maximal[0].items, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(maximal[1].items, (std::vector<int>{2}));
}

TEST(MaximalMiner, TextbookExample) {
  TransactionDb db = TransactionDb::FromTransactions(
      5, {{0, 1, 4}, {1, 3}, {1, 2}, {0, 1, 3}, {0, 2}});
  MinerLimits limits;
  limits.min_support_count = 2;
  auto maximal = MineMaximalFrequent(db, limits);
  // Maximal frequent at support 2: {0,1}, {1,3}, {2}.
  ASSERT_EQ(maximal.size(), 3u);
  EXPECT_EQ(maximal[0].items, (std::vector<int>{0, 1}));
  EXPECT_EQ(maximal[0].support, 2);
  EXPECT_EQ(maximal[1].items, (std::vector<int>{1, 3}));
  EXPECT_EQ(maximal[2].items, (std::vector<int>{2}));
}

TEST(MaximalMiner, SingleFullTransaction) {
  TransactionDb db = TransactionDb::FromTransactions(3, {{0, 1, 2}, {0, 1, 2}});
  MinerLimits limits;
  limits.min_support_count = 2;
  auto maximal = MineMaximalFrequent(db, limits);
  ASSERT_EQ(maximal.size(), 1u);
  EXPECT_EQ(maximal[0].items, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(maximal[0].support, 2);
}

TEST(MaximalMiner, EmptyWhenNothingFrequent) {
  TransactionDb db = TransactionDb::FromTransactions(3, {{0}, {1}, {2}});
  MinerLimits limits;
  limits.min_support_count = 2;
  EXPECT_TRUE(MineMaximalFrequent(db, limits).empty());
}

// ---------------------------------------------------------------------------
// Cross-validation: MAFIA output == maximal(Apriori output) on random DBs.
// ---------------------------------------------------------------------------

struct MiningCase {
  int num_items;
  int num_transactions;
  double density;
  int min_support;
};

class MinerCrossValidationTest : public ::testing::TestWithParam<MiningCase> {};

TEST_P(MinerCrossValidationTest, MafiaEqualsMaximalApriori) {
  const MiningCase& param = GetParam();
  Rng rng(52000u + static_cast<std::uint64_t>(param.num_items * 1000 +
                                              param.num_transactions));
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<std::vector<int>> txns;
    for (int t = 0; t < param.num_transactions; ++t) {
      std::vector<int> txn;
      for (int i = 0; i < param.num_items; ++i) {
        if (rng.UniformDouble() < param.density) txn.push_back(i);
      }
      txns.push_back(std::move(txn));
    }
    TransactionDb db = TransactionDb::FromTransactions(param.num_items, txns);
    MinerLimits limits;
    limits.min_support_count = param.min_support;

    auto mafia = MineMaximalFrequent(db, limits);
    auto apriori_maximal =
        FilterMaximal(MineFrequentApriori(db, param.min_support));

    ASSERT_EQ(mafia.size(), apriori_maximal.size()) << "trial " << trial;
    for (std::size_t s = 0; s < mafia.size(); ++s) {
      EXPECT_EQ(mafia[s].items, apriori_maximal[s].items) << "trial " << trial;
      EXPECT_EQ(mafia[s].support, apriori_maximal[s].support);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDatabases, MinerCrossValidationTest,
    ::testing::Values(MiningCase{6, 20, 0.4, 2}, MiningCase{8, 30, 0.3, 2},
                      MiningCase{8, 30, 0.5, 3}, MiningCase{10, 40, 0.25, 2},
                      MiningCase{10, 25, 0.5, 4}, MiningCase{12, 50, 0.2, 3}));

}  // namespace
}  // namespace bundlemine
