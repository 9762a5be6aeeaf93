// Willingness-to-pay (WTP) matrix and sparse per-bundle WTP vectors.
//
// The paper derives W from ratings: for an item with list price p and maximum
// star rating r_max = 5, a consumer who rated r stars is willing to pay
// (r / r_max) · λ · p, with conversion factor λ ≥ 1 (Section 6.1.1). Unrated
// (user, item) pairs carry zero willingness to pay; the matrix is therefore
// stored sparsely in both row-major (by user) and column-major (by item) form.
//
// Bundle willingness to pay follows Eq. 1 (Venkatesh & Kamakura):
//     w(u, b) = (1 + θ) · Σ_{i∈b} w(u, i)          for |b| ≥ 2,
//     w(u, {i}) = w(u, i)                           for singletons,
// so the per-bundle state maintained by the bundling algorithms is the *raw
// item-sum* vector s(u, b) = Σ_{i∈b} w(u, i); merging two bundles is a sparse
// vector addition and the θ factor is applied at pricing time.

#ifndef BUNDLEMINE_DATA_WTP_MATRIX_H_
#define BUNDLEMINE_DATA_WTP_MATRIX_H_

#include <span>
#include <tuple>
#include <vector>

#include "data/ratings.h"

namespace bundlemine {

/// One sparse coordinate of a WTP vector: `id` is a user (or item) index.
struct WtpEntry {
  std::int32_t id = 0;
  double w = 0.0;
};

/// Sparse per-bundle vector of raw WTP sums, ordered by user id.
class SparseWtpVector {
 public:
  SparseWtpVector() = default;
  explicit SparseWtpVector(std::vector<WtpEntry> entries);

  /// Element-wise sum of two vectors (sorted merge), used when two bundles
  /// are collapsed into one.
  static SparseWtpVector Merge(const SparseWtpVector& a, const SparseWtpVector& b);

  const std::vector<WtpEntry>& entries() const { return entries_; }
  std::size_t nnz() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Sum of all coordinates (total raw WTP of the bundle).
  double Sum() const;

 private:
  std::vector<WtpEntry> entries_;
};

/// Immutable sparse M×N willingness-to-pay matrix with both orientations.
class WtpMatrix {
 public:
  WtpMatrix() = default;

  /// Derives W from ratings with conversion factor `lambda` (paper default
  /// 1.25) and the 1..5 star scale.
  static WtpMatrix FromRatings(const RatingsDataset& data, double lambda);

  /// Builds directly from explicit triplets; used by tests and examples.
  /// `prices` may be empty when the list-price baseline is not needed.
  static WtpMatrix FromTriplets(
      int num_users, int num_items,
      const std::vector<std::tuple<UserId, ItemId, double>>& triplets,
      std::vector<double> prices = {});

  int num_users() const { return num_users_; }
  int num_items() const { return num_items_; }
  std::int64_t nnz() const { return static_cast<std::int64_t>(by_item_entries_.size()); }
  double lambda() const { return lambda_; }

  /// Consumers interested in `item`, ordered by user id.
  std::span<const WtpEntry> ItemUsers(ItemId item) const;

  /// Items `user` is interested in, ordered by item id. Entry ids are items.
  std::span<const WtpEntry> UserItems(UserId user) const;

  /// Point lookup; 0 when the user never rated the item.
  double Value(UserId user, ItemId item) const;

  /// Aggregate willingness to pay over all users and items — the paper's
  /// revenue-coverage denominator (θ-independent, per individual items).
  double TotalWtp() const;

  /// The item's list price (0 when prices were not supplied).
  double ListPrice(ItemId item) const;
  bool has_prices() const { return !prices_.empty(); }

  /// Copies an item's consumer column as a bundle seed vector.
  SparseWtpVector ItemVector(ItemId item) const;

  /// Every unordered item pair {i, j} for which at least one consumer has
  /// positive WTP for both — the paper's first-iteration pruning universe.
  /// Pairs are deduplicated and sorted.
  std::vector<std::pair<ItemId, ItemId>> CoInterestedPairs() const;

 private:
  int num_users_ = 0;
  int num_items_ = 0;
  double lambda_ = 0.0;
  // CSR by user: UserItems(u) = entries [user_ptr_[u], user_ptr_[u+1]).
  std::vector<std::size_t> user_ptr_;
  std::vector<WtpEntry> by_user_entries_;
  // CSC by item: ItemUsers(i) = entries [item_ptr_[i], item_ptr_[i+1]).
  std::vector<std::size_t> item_ptr_;
  std::vector<WtpEntry> by_item_entries_;
  std::vector<double> prices_;
  double total_wtp_ = 0.0;

  void BuildFromCoordinates(int num_users, int num_items,
                            std::vector<std::tuple<UserId, ItemId, double>> coords,
                            std::vector<double> prices, double lambda);
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_DATA_WTP_MATRIX_H_
