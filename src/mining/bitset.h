// Fixed-size bitset with fast intersection popcounts — the vertical bitmap
// representation MAFIA-style miners use for support counting.

#ifndef BUNDLEMINE_MINING_BITSET_H_
#define BUNDLEMINE_MINING_BITSET_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace bundlemine {

/// Dense bitset over positions [0, size).
class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  std::size_t size() const { return size_; }

  void Set(std::size_t i) {
    BM_DCHECK(i < size_);
    words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
  }

  void Clear(std::size_t i) {
    BM_DCHECK(i < size_);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  bool Test(std::size_t i) const {
    BM_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Number of set bits.
  std::size_t Count() const {
    std::size_t c = 0;
    for (std::uint64_t w : words_) c += static_cast<std::size_t>(std::popcount(w));
    return c;
  }

  /// Popcount of (*this ∩ other) without materializing the intersection.
  std::size_t AndCount(const Bitset& other) const {
    BM_DCHECK(size_ == other.size_);
    std::size_t c = 0;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      c += static_cast<std::size_t>(std::popcount(words_[w] & other.words_[w]));
    }
    return c;
  }

  /// *this ∩= other.
  void AndWith(const Bitset& other) {
    BM_DCHECK(size_ == other.size_);
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
  }

  /// True when the intersection is non-empty; early-exits on the first
  /// overlapping word, so disjoint-prefix pairs are cheap to reject.
  bool Intersects(const Bitset& other) const {
    BM_DCHECK(size_ == other.size_);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if ((words_[w] & other.words_[w]) != 0) return true;
    }
    return false;
  }

  /// Copy with a new size: bits [0, min(size, new_size)) preserved, the
  /// rest zero (shrinking silently drops bits at or past new_size). Word
  /// copy plus a tail mask — the streaming market's user-dimension resize.
  Bitset Resized(std::size_t new_size) const {
    Bitset out(new_size);
    const std::size_t shared = std::min(out.words_.size(), words_.size());
    for (std::size_t w = 0; w < shared; ++w) out.words_[w] = words_[w];
    const std::size_t tail = new_size & 63;
    if (!out.words_.empty() && tail != 0) {
      out.words_.back() &= (std::uint64_t{1} << tail) - 1;
    }
    return out;
  }

  /// Raw word storage (64 positions per word, LSB-first); exposed so callers
  /// can iterate set bits or unions of bitsets with countr_zero loops.
  std::span<const std::uint64_t> words() const { return words_; }

  /// out = a ∩ b (out must have the same size).
  static void And(const Bitset& a, const Bitset& b, Bitset* out) {
    BM_DCHECK(a.size_ == b.size_);
    BM_DCHECK(a.size_ == out->size_);
    for (std::size_t w = 0; w < a.words_.size(); ++w) {
      out->words_[w] = a.words_[w] & b.words_[w];
    }
  }

  bool operator==(const Bitset& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_MINING_BITSET_H_
