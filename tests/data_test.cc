// Unit tests for the data substrate: dataset container + transformations,
// synthetic generator calibration, WTP matrix construction, and IO.

#include <filesystem>

#include "data/dataset_io.h"
#include "data/generator.h"
#include "data/ratings.h"
#include "data/wtp_matrix.h"
#include "gtest/gtest.h"

namespace bundlemine {
namespace {

RatingsDataset MakeTinyDataset() {
  // 3 users × 3 items; item 2 is rated once only.
  std::vector<Rating> ratings = {
      {0, 0, 5.0f}, {0, 1, 3.0f}, {1, 0, 4.0f}, {1, 1, 2.0f}, {2, 0, 1.0f},
      {2, 2, 5.0f},
  };
  return RatingsDataset(3, 3, ratings, {10.0, 20.0, 8.0});
}

TEST(RatingsDataset, BasicAccessors) {
  RatingsDataset d = MakeTinyDataset();
  EXPECT_EQ(d.num_users(), 3);
  EXPECT_EQ(d.num_items(), 3);
  EXPECT_EQ(d.ratings().size(), 6u);
  EXPECT_DOUBLE_EQ(d.price(1), 20.0);
}

TEST(RatingsDataset, CoreFilterReachesFixedPoint) {
  // min_degree = 2: item 2 (1 rating) dies; then user 2 has only item 0 →
  // dies; remaining users 0,1 and items 0,1 all have degree 2.
  RatingsDataset d = MakeTinyDataset().CoreFilter(2);
  EXPECT_EQ(d.num_users(), 2);
  EXPECT_EQ(d.num_items(), 2);
  EXPECT_EQ(d.ratings().size(), 4u);
  for (const Rating& r : d.ratings()) {
    EXPECT_LT(r.user, 2);
    EXPECT_LT(r.item, 2);
  }
  // Prices follow the surviving items.
  EXPECT_DOUBLE_EQ(d.price(0), 10.0);
  EXPECT_DOUBLE_EQ(d.price(1), 20.0);
}

TEST(RatingsDataset, CoreFilterDegreeOneKeepsEverything) {
  RatingsDataset d = MakeTinyDataset().CoreFilter(1);
  EXPECT_EQ(d.num_users(), 3);
  EXPECT_EQ(d.num_items(), 3);
}

TEST(RatingsDataset, CloneUsersWholeFactor) {
  RatingsDataset d = MakeTinyDataset().CloneUsers(2.0, nullptr);
  EXPECT_EQ(d.num_users(), 6);
  EXPECT_EQ(d.num_items(), 3);
  EXPECT_EQ(d.ratings().size(), 12u);
  // The clone of user 0 is user 3 with identical ratings.
  int user3_count = 0;
  for (const Rating& r : d.ratings()) {
    if (r.user == 3) ++user3_count;
  }
  EXPECT_EQ(user3_count, 2);
}

TEST(RatingsDataset, CloneUsersFractionalFactor) {
  Rng rng(3);
  RatingsDataset d = MakeTinyDataset().CloneUsers(1.5, &rng);
  // 3 original + round(0.5 * 3) ≈ 2 sampled extras.
  EXPECT_EQ(d.num_users(), 5);
  EXPECT_GT(d.ratings().size(), 6u);
}

TEST(RatingsDataset, SelectItemsRenumbers) {
  RatingsDataset d = MakeTinyDataset().SelectItems({2, 0});
  EXPECT_EQ(d.num_items(), 2);
  EXPECT_EQ(d.num_users(), 3);  // Users preserved.
  EXPECT_DOUBLE_EQ(d.price(0), 8.0);   // Old item 2.
  EXPECT_DOUBLE_EQ(d.price(1), 10.0);  // Old item 0.
  // Ratings for old item 1 are gone: 6 - 2 = 4 remain.
  EXPECT_EQ(d.ratings().size(), 4u);
}

TEST(RatingsDataset, SampleItemIdsDistinctSorted) {
  RatingsDataset d = MakeTinyDataset();
  Rng rng(9);
  auto ids = d.SampleItemIds(2, &rng);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_LT(ids[0], ids[1]);
}

TEST(RatingsDataset, StatsSharesSumToOne) {
  DatasetStats s = MakeTinyDataset().Stats();
  double total = 0.0;
  for (int v = 1; v <= 5; ++v) total += s.rating_share[v];
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(s.price_share_low + s.price_share_mid + s.price_share_high, 1.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Generator calibration against the paper's reported marginals.
// ---------------------------------------------------------------------------

TEST(Generator, TinyProfileSatisfiesCoreConstraint) {
  RatingsDataset d = GenerateAmazonLike(TinyProfile(1));
  ASSERT_GT(d.num_users(), 0);
  ASSERT_GT(d.num_items(), 0);
  std::vector<int> user_deg(static_cast<std::size_t>(d.num_users()), 0);
  std::vector<int> item_deg(static_cast<std::size_t>(d.num_items()), 0);
  for (const Rating& r : d.ratings()) {
    ++user_deg[static_cast<std::size_t>(r.user)];
    ++item_deg[static_cast<std::size_t>(r.item)];
  }
  for (int deg : user_deg) EXPECT_GE(deg, 10);
  for (int deg : item_deg) EXPECT_GE(deg, 10);
}

TEST(Generator, SmallProfileMatchesPaperMarginals) {
  RatingsDataset d = GenerateAmazonLike(SmallProfile(42));
  DatasetStats s = d.Stats();
  // Rating-value distribution {3%, 5%, 13%, 29%, 49%} within tolerance.
  EXPECT_NEAR(s.rating_share[1], 0.03, 0.015);
  EXPECT_NEAR(s.rating_share[2], 0.05, 0.015);
  EXPECT_NEAR(s.rating_share[3], 0.13, 0.02);
  EXPECT_NEAR(s.rating_share[4], 0.29, 0.03);
  EXPECT_NEAR(s.rating_share[5], 0.49, 0.03);
  // Price mixture {~50% <$10, ~45% $10–20, ~4% >$20}.
  EXPECT_NEAR(s.price_share_low, 0.50, 0.08);
  EXPECT_NEAR(s.price_share_mid, 0.45, 0.08);
  EXPECT_NEAR(s.price_share_high, 0.045, 0.04);
  // Mean activity near the paper's ≈24 ratings/user.
  EXPECT_GT(s.mean_ratings_per_user, 14.0);
  EXPECT_LT(s.mean_ratings_per_user, 40.0);
}

TEST(Generator, DeterministicPerSeed) {
  RatingsDataset a = GenerateAmazonLike(TinyProfile(7));
  RatingsDataset b = GenerateAmazonLike(TinyProfile(7));
  RatingsDataset c = GenerateAmazonLike(TinyProfile(8));
  ASSERT_EQ(a.ratings().size(), b.ratings().size());
  for (std::size_t i = 0; i < a.ratings().size(); ++i) {
    EXPECT_EQ(a.ratings()[i].user, b.ratings()[i].user);
    EXPECT_EQ(a.ratings()[i].item, b.ratings()[i].item);
    EXPECT_EQ(a.ratings()[i].value, b.ratings()[i].value);
  }
  EXPECT_NE(a.ratings().size(), c.ratings().size());
}

TEST(Generator, ProfileByNameResolves) {
  EXPECT_EQ(ProfileByName("tiny", 1).num_items, TinyProfile(1).num_items);
  EXPECT_EQ(ProfileByName("small", 1).num_items, SmallProfile(1).num_items);
  EXPECT_EQ(ProfileByName("medium", 1).num_items, MediumProfile(1).num_items);
  EXPECT_EQ(ProfileByName("paper", 1).num_items, PaperProfile(1).num_items);
}

// ---------------------------------------------------------------------------
// WTP matrix.
// ---------------------------------------------------------------------------

TEST(WtpMatrix, FromRatingsAppliesConversion) {
  RatingsDataset d = MakeTinyDataset();
  WtpMatrix w = WtpMatrix::FromRatings(d, /*lambda=*/1.25);
  // w(u,i) = stars/5 · λ · price.
  EXPECT_DOUBLE_EQ(w.Value(0, 0), 5.0 / 5.0 * 1.25 * 10.0);  // 12.50
  EXPECT_DOUBLE_EQ(w.Value(0, 1), 3.0 / 5.0 * 1.25 * 20.0);  // 15.00
  EXPECT_DOUBLE_EQ(w.Value(2, 2), 5.0 / 5.0 * 1.25 * 8.0);   // 10.00
  EXPECT_DOUBLE_EQ(w.Value(2, 1), 0.0);                       // Unrated.
  EXPECT_TRUE(w.has_prices());
  EXPECT_DOUBLE_EQ(w.ListPrice(1), 20.0);
}

TEST(WtpMatrix, TotalWtpSumsAllEntries) {
  std::vector<std::tuple<UserId, ItemId, double>> triplets = {
      {0, 0, 1.5}, {1, 0, 2.0}, {0, 1, 3.0}};
  WtpMatrix w = WtpMatrix::FromTriplets(2, 2, triplets);
  EXPECT_DOUBLE_EQ(w.TotalWtp(), 6.5);
  EXPECT_EQ(w.nnz(), 3);
}

TEST(WtpMatrix, OrientationsAreConsistent) {
  RatingsDataset d = GenerateAmazonLike(TinyProfile(3));
  WtpMatrix w = WtpMatrix::FromRatings(d, 1.25);
  // Every (item → user) entry appears as (user → item) with the same value.
  for (ItemId i = 0; i < w.num_items(); ++i) {
    auto col = w.ItemUsers(i);
    for (std::size_t t = 1; t < col.size(); ++t) {
      EXPECT_LT(col[t - 1].id, col[t].id);  // Sorted by user.
    }
    for (const WtpEntry& e : col) {
      EXPECT_DOUBLE_EQ(w.Value(e.id, i), e.w);
    }
  }
}

TEST(WtpMatrix, CoInterestedPairsOnCraftedData) {
  // u0 rates {0,1}; u1 rates {1,2}; u2 rates {3}.
  std::vector<std::tuple<UserId, ItemId, double>> triplets = {
      {0, 0, 1.0}, {0, 1, 1.0}, {1, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}};
  WtpMatrix w = WtpMatrix::FromTriplets(3, 4, triplets);
  auto pairs = w.CoInterestedPairs();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (std::pair<ItemId, ItemId>{0, 1}));
  EXPECT_EQ(pairs[1], (std::pair<ItemId, ItemId>{1, 2}));
}

TEST(SparseWtpVector, MergeAddsSharedUsers) {
  SparseWtpVector a({{0, 1.0}, {2, 2.0}});
  SparseWtpVector b({{1, 5.0}, {2, 3.0}});
  SparseWtpVector m = SparseWtpVector::Merge(a, b);
  ASSERT_EQ(m.nnz(), 3u);
  const std::vector<WtpEntry>& e = m.entries();
  EXPECT_EQ(e[0].id, 0);
  EXPECT_DOUBLE_EQ(e[0].w, 1.0);
  EXPECT_EQ(e[1].id, 1);
  EXPECT_DOUBLE_EQ(e[1].w, 5.0);
  EXPECT_EQ(e[2].id, 2);
  EXPECT_DOUBLE_EQ(e[2].w, 5.0);
  EXPECT_DOUBLE_EQ(m.Sum(), 11.0);
}

TEST(SparseWtpVector, MergeWithEmpty) {
  SparseWtpVector a({{3, 4.0}});
  SparseWtpVector empty;
  SparseWtpVector m = SparseWtpVector::Merge(a, empty);
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.Sum(), 4.0);
}

TEST(DatasetIo, RoundTrip) {
  RatingsDataset d = MakeTinyDataset();
  std::string stem =
      (std::filesystem::temp_directory_path() / "bundlemine_io_test").string();
  ASSERT_TRUE(SaveDataset(d, stem));
  auto loaded = LoadDataset(stem);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_users(), d.num_users());
  EXPECT_EQ(loaded->num_items(), d.num_items());
  ASSERT_EQ(loaded->ratings().size(), d.ratings().size());
  for (int i = 0; i < d.num_items(); ++i) {
    EXPECT_DOUBLE_EQ(loaded->price(i), d.price(i));
  }
  std::filesystem::remove(stem + ".ratings.csv");
  std::filesystem::remove(stem + ".prices.csv");
}

TEST(DatasetIo, MissingFilesReturnNullopt) {
  EXPECT_FALSE(LoadDataset("/nonexistent/bundlemine_stem").has_value());
}

}  // namespace
}  // namespace bundlemine
