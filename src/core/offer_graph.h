// The bundling graph shared by the matching (Algorithm 1) and greedy
// (Algorithm 2) bundlers.
//
// Both algorithms run one bottom-up merge process and differ only in which
// positive-gain pairs they collapse: a maximum-weight matching per round, or
// the single best pair at a time. OfferGraph owns that process's state — the
// priced singleton offers, every merged offer, and the absorbed ones kept for
// mixed bundling's X′ — together with the operations on it: pair
// evaluation, merge and emission. The frequent-itemset baseline reads its
// per-item pricing from the singletons.

#ifndef BUNDLEMINE_CORE_OFFER_GRAPH_H_
#define BUNDLEMINE_CORE_OFFER_GRAPH_H_

#include <vector>

#include "core/bundle.h"
#include "core/problem.h"
#include "core/resolve_hints.h"
#include "core/solution.h"
#include "data/wtp_matrix.h"
#include "mining/bitset.h"
#include "pricing/mixed_pricer.h"
#include "pricing/offer_pricer.h"
#include "pricing/pricing_workspace.h"

namespace bundlemine {

/// A merge (or candidate bundle) gains only above this margin.
inline constexpr double kGainEpsilon = 1e-9;

/// A vertex of the bundling graph: a live or absorbed offer.
struct Offer {
  Bundle items;
  SparseWtpVector raw;
  // Mixed bundling: per-consumer expected payment within this offer's
  // subtree (bundle + retained components). Keeps multi-level incremental
  // gains consistent — see MergeSide::payments.
  SparseWtpVector payments;
  // Consumers with positive raw WTP, one bit per user: the co-interest
  // pruning's support join runs on word-AND popcounts instead of a sorted
  // merge.
  Bitset support;
  // Dense SoA columns mirroring `raw` / `payments` (zero where absent).
  // Maintained only when the graph's dense columns are on.
  std::vector<double> col;
  std::vector<double> pay_col;
  double price = 0.0;       // Market price of this offer.
  double standalone = 0.0;  // Standalone expected revenue at `price` (pure).
  double buyers = 0.0;
  double attributed = 0.0;  // Cumulative revenue of this offer's subtree.
  double increment = 0.0;   // Own contribution (singleton rev / merge gain).
  bool alive = true;
  bool is_new = true;       // Formed in the previous matching round.
  int child1 = -1;
  int child2 = -1;
  // The node of the prior solve's merge tree this offer equals (same
  // children, same order, untouched items), or -1.
  int prior_node = -1;
};

/// The evaluated outcome of merging offers a and b.
struct PairOutcome {
  int a = 0;
  int b = 0;
  double gain = 0.0;
  double price = 0.0;    // Price of the merged offer.
  double revenue = 0.0;  // Pure: standalone revenue of the merged offer.
  double buyers = 0.0;
};

class OfferGraph {
 public:
  /// Prices one singleton offer per item (= Components pricing) in `ws`.
  /// `dense_columns` asks for SoA columns; they engage only when every WTP
  /// entry is positive, which keeps the dense path bit-identical to the
  /// sparse sorted merge, and when the singletons' columns fit a fixed
  /// budget (absorbed offers free theirs, so at most num_items columns are
  /// live at once). With `hints` carrying a usable prior merge tree, each
  /// clean singleton maps to its prior leaf and every merge to its prior
  /// node; with a `fill` sink, every merge is recorded into it.
  OfferGraph(const BundleConfigProblem& problem, bool dense_columns,
             PricingWorkspace* ws, const ResolveHints* hints = nullptr);

  OfferGraph(const OfferGraph&) = delete;
  OfferGraph& operator=(const OfferGraph&) = delete;

  const std::vector<Offer>& offers() const { return offers_; }
  const Offer& offer(int index) const {
    return offers_[static_cast<std::size_t>(index)];
  }
  /// Marks every offer as formed before the coming round.
  void ClearNew() {
    for (Offer& o : offers_) o.is_new = false;
  }
  /// True when the dense columns engaged.
  bool dense() const { return dense_; }
  const MatchingPairCache* prior() const { return prior_; }
  MatchingPairCache* fill() const { return fill_; }

  /// Evaluates merging offers a and b; false when the merge is oversize or
  /// gains nothing. Reads only the two offers plus the caller's workspace,
  /// so distinct candidates may be evaluated concurrently, and a pair of
  /// unchanged offers evaluates bit-identically every time.
  bool EvaluatePair(int a, int b, PairOutcome* out,
                    PricingWorkspace* ws) const;

  /// The cached form of a positive-gain outcome: pure keeps the merged
  /// revenue, mixed keeps the gain (its merged revenue is always 0).
  MatchingPairCache::Outcome ToOutcome(const PairOutcome& e) const;
  /// Rebuilds the outcome of offers (a, b) from their cached gain outcome,
  /// bit-identical to a fresh evaluation.
  PairOutcome FromOutcome(int a, int b,
                          const MatchingPairCache::Outcome& out) const;

  /// Collapses an evaluated pair into a new offer and returns its index. The
  /// two absorbed offers keep only what emission reads.
  int Merge(const PairOutcome& edge);

  /// Sum of the live offers' attributed revenue, in offer order.
  double TotalRevenue() const;
  int AliveCount() const;

  /// The configuration: live offers, then (mixed) every absorbed offer as an
  /// X′ component. The caller supplies the total, which its selection rule
  /// accumulates in its own order.
  BundleSolution BuildSolution(double total_revenue) const;

 private:
  // Rebuilds an offer's support bitset (and, with dense columns, its WTP
  // and payment columns) from its sparse vectors.
  void RefreshViews(Offer* o) const;
  double Scale(int size) const { return BundleScale(size, theta_); }
  MergeSide SideOf(const Offer& o) const {
    return MergeSide{&o.raw, Scale(o.items.size()), o.price, &o.payments};
  }

  OfferPricer pricer_;
  MixedPricer mixed_;
  double theta_ = 0.0;
  int max_size_ = 0;
  int num_users_ = 0;
  bool pure_ = true;
  bool dense_ = false;
  const MatchingPairCache* prior_ = nullptr;
  MatchingPairCache* fill_ = nullptr;
  std::vector<Offer> offers_;
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_CORE_OFFER_GRAPH_H_
