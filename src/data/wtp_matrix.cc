#include "data/wtp_matrix.h"

#include <algorithm>

#include "util/check.h"

namespace bundlemine {

SparseWtpVector::SparseWtpVector(std::vector<WtpEntry> entries)
    : entries_(std::move(entries)) {
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    BM_CHECK_MSG(entries_[i - 1].id < entries_[i].id,
                 "SparseWtpVector entries must be strictly sorted by id");
  }
}

SparseWtpVector SparseWtpVector::Merge(const SparseWtpVector& a,
                                       const SparseWtpVector& b) {
  std::vector<WtpEntry> out;
  out.reserve(a.entries_.size() + b.entries_.size());
  std::size_t i = 0, j = 0;
  while (i < a.entries_.size() && j < b.entries_.size()) {
    if (a.entries_[i].id < b.entries_[j].id) {
      out.push_back(a.entries_[i++]);
    } else if (a.entries_[i].id > b.entries_[j].id) {
      out.push_back(b.entries_[j++]);
    } else {
      out.push_back(WtpEntry{a.entries_[i].id, a.entries_[i].w + b.entries_[j].w});
      ++i;
      ++j;
    }
  }
  while (i < a.entries_.size()) out.push_back(a.entries_[i++]);
  while (j < b.entries_.size()) out.push_back(b.entries_[j++]);
  SparseWtpVector v;
  v.entries_ = std::move(out);
  return v;
}

double SparseWtpVector::Sum() const {
  double s = 0.0;
  for (const WtpEntry& e : entries_) s += e.w;
  return s;
}

void WtpMatrix::BuildFromCoordinates(
    int num_users, int num_items,
    std::vector<std::tuple<UserId, ItemId, double>> coords,
    std::vector<double> prices, double lambda) {
  num_users_ = num_users;
  num_items_ = num_items;
  lambda_ = lambda;
  prices_ = std::move(prices);
  if (!prices_.empty()) {
    BM_CHECK_EQ(static_cast<int>(prices_.size()), num_items);
  }

  for (const auto& [u, i, w] : coords) {
    BM_CHECK(u >= 0 && u < num_users);
    BM_CHECK(i >= 0 && i < num_items);
    BM_CHECK_GE(w, 0.0);
  }

  // CSC by item (user-sorted within item).
  std::sort(coords.begin(), coords.end(), [](const auto& a, const auto& b) {
    if (std::get<1>(a) != std::get<1>(b)) return std::get<1>(a) < std::get<1>(b);
    return std::get<0>(a) < std::get<0>(b);
  });
  item_ptr_.assign(static_cast<std::size_t>(num_items) + 1, 0);
  by_item_entries_.clear();
  by_item_entries_.reserve(coords.size());
  // Accumulated in canonical (item-major, user-sorted) order so the total —
  // and everything derived from it, like coverage — is independent of the
  // caller's coordinate order. A streamed market snapshot and the batch
  // generator may list the same ratings differently; their artifacts must
  // still match byte for byte.
  total_wtp_ = 0.0;
  for (const auto& [u, i, w] : coords) {
    by_item_entries_.push_back(WtpEntry{u, w});
    total_wtp_ += w;
    ++item_ptr_[static_cast<std::size_t>(i) + 1];
  }
  for (std::size_t i = 1; i < item_ptr_.size(); ++i) item_ptr_[i] += item_ptr_[i - 1];

  // CSR by user (item-sorted within user).
  std::sort(coords.begin(), coords.end(), [](const auto& a, const auto& b) {
    if (std::get<0>(a) != std::get<0>(b)) return std::get<0>(a) < std::get<0>(b);
    return std::get<1>(a) < std::get<1>(b);
  });
  user_ptr_.assign(static_cast<std::size_t>(num_users) + 1, 0);
  by_user_entries_.clear();
  by_user_entries_.reserve(coords.size());
  UserId prev_u = -1;
  ItemId prev_i = -1;
  for (const auto& [u, i, w] : coords) {
    BM_CHECK_MSG(!(u == prev_u && i == prev_i), "duplicate (user,item) coordinate");
    prev_u = u;
    prev_i = i;
    by_user_entries_.push_back(WtpEntry{i, w});
    ++user_ptr_[static_cast<std::size_t>(u) + 1];
  }
  for (std::size_t i = 1; i < user_ptr_.size(); ++i) user_ptr_[i] += user_ptr_[i - 1];
}

WtpMatrix WtpMatrix::FromRatings(const RatingsDataset& data, double lambda) {
  BM_CHECK_GE(lambda, 0.0);
  constexpr double kMaxStars = 5.0;
  std::vector<std::tuple<UserId, ItemId, double>> coords;
  coords.reserve(data.ratings().size());
  for (const Rating& r : data.ratings()) {
    double w = (static_cast<double>(r.value) / kMaxStars) * lambda * data.price(r.item);
    coords.emplace_back(r.user, r.item, w);
  }
  WtpMatrix m;
  m.BuildFromCoordinates(data.num_users(), data.num_items(), std::move(coords),
                         data.prices(), lambda);
  return m;
}

WtpMatrix WtpMatrix::FromTriplets(
    int num_users, int num_items,
    const std::vector<std::tuple<UserId, ItemId, double>>& triplets,
    std::vector<double> prices) {
  WtpMatrix m;
  m.BuildFromCoordinates(num_users, num_items, triplets, std::move(prices),
                         /*lambda=*/0.0);
  return m;
}

std::span<const WtpEntry> WtpMatrix::ItemUsers(ItemId item) const {
  BM_CHECK(item >= 0 && item < num_items_);
  std::size_t b = item_ptr_[static_cast<std::size_t>(item)];
  std::size_t e = item_ptr_[static_cast<std::size_t>(item) + 1];
  return {by_item_entries_.data() + b, e - b};
}

std::span<const WtpEntry> WtpMatrix::UserItems(UserId user) const {
  BM_CHECK(user >= 0 && user < num_users_);
  std::size_t b = user_ptr_[static_cast<std::size_t>(user)];
  std::size_t e = user_ptr_[static_cast<std::size_t>(user) + 1];
  return {by_user_entries_.data() + b, e - b};
}

double WtpMatrix::Value(UserId user, ItemId item) const {
  auto row = UserItems(user);
  auto it = std::lower_bound(
      row.begin(), row.end(), item,
      [](const WtpEntry& e, ItemId i) { return e.id < i; });
  if (it != row.end() && it->id == item) return it->w;
  return 0.0;
}

double WtpMatrix::TotalWtp() const { return total_wtp_; }

double WtpMatrix::ListPrice(ItemId item) const {
  if (prices_.empty()) return 0.0;
  BM_CHECK(item >= 0 && item < num_items_);
  return prices_[static_cast<std::size_t>(item)];
}

SparseWtpVector WtpMatrix::ItemVector(ItemId item) const {
  auto col = ItemUsers(item);
  return SparseWtpVector(std::vector<WtpEntry>(col.begin(), col.end()));
}

std::vector<std::pair<ItemId, ItemId>> WtpMatrix::CoInterestedPairs() const {
  // Per item i: every partner j > i of a consumer with positive WTP for
  // both, found through i's consumers' rows. stamp[j] == i marks j as seen
  // for this i, so each pair is listed once without a global sort.
  std::vector<std::pair<ItemId, ItemId>> pairs;
  std::vector<ItemId> stamp(static_cast<std::size_t>(num_items_), -1);
  std::vector<ItemId> partners;
  for (ItemId i = 0; i < num_items_; ++i) {
    partners.clear();
    for (const WtpEntry& user : ItemUsers(i)) {
      if (user.w <= 0.0) continue;
      std::span<const WtpEntry> row = UserItems(user.id);
      // Rows are sorted by item id: walk down from the top until j <= i.
      for (auto it = row.rbegin(); it != row.rend() && it->id > i; ++it) {
        if (it->w <= 0.0 || stamp[static_cast<std::size_t>(it->id)] == i) {
          continue;
        }
        stamp[static_cast<std::size_t>(it->id)] = i;
        partners.push_back(it->id);
      }
    }
    std::sort(partners.begin(), partners.end());
    for (ItemId j : partners) pairs.emplace_back(i, j);
  }
  return pairs;
}

}  // namespace bundlemine
