// Mixed-bundling incremental pricing (paper Section 4.2, mixed side).
//
// Under mixed bundling a bundle is offered *alongside* its two constituent
// offers c1 and c2. The paper adopts an incremental policy: component prices
// p1, p2 are fixed first; the bundle price p is then chosen subject to the
// standard viability constraints (Guiltinan):
//     p > max(p1, p2)      and      p < p1 + p2.
//
// Adoption semantics. A consumer does not buy the bundle merely because
// w(u,b) ≥ p — that would ignore the cheaper "upgrade path" through a
// component (the paper's counter-intuitive-outcome discussion). Consumer u
// adopts the bundle iff all of:
//     (1) w(u,b) ≥ p                        (the bundle itself is affordable),
//     (2) p − p1 ≤ w(u,c2)                  (upgrading from c1 is worth it),
//     (3) p − p2 ≤ w(u,c1)                  (upgrading from c2 is worth it).
// Otherwise u buys whichever of c1/c2 she can afford (possibly both).
//
// The seller's *gain* from introducing the bundle therefore nets out the
// component revenue the switchers abandon:
//     gain(p) = Σ_{u adopts b} (p − p1·[w1 ≥ p1] − p2·[w2 ≥ p2]),
// and the bundle is feasible only when max_p gain(p) > 0 — "a bundle is
// feasible if offering both the bundle and its components brings in more
// revenue than offering its components alone."
//
// Stochastic extension. The paper specifies the sigmoid for a single offer
// only. We take P(adopt bundle) = σ(γ·(min slack over constraints 1–3) + ε):
// the minimum-slack composition recovers the deterministic conjunction
// exactly as γ → ∞ and degrades smoothly for finite γ. Component purchase
// probabilities are the single-offer sigmoids. Expected gain per consumer is
//     P_b(p) · (p − p1·P(c1) − p2·P(c2)).
// (The product-of-sigmoids alternative is provided for the ablation bench.)

#ifndef BUNDLEMINE_PRICING_MIXED_PRICER_H_
#define BUNDLEMINE_PRICING_MIXED_PRICER_H_

#include "data/wtp_matrix.h"
#include "mining/bitset.h"
#include "pricing/adoption_model.h"
#include "pricing/offer_pricer.h"
#include "pricing/pricing_workspace.h"

namespace bundlemine {

/// How multiple stochastic upgrade constraints combine into one adoption
/// probability (irrelevant for the step model where both coincide).
enum class MixedComposition {
  kMinSlack,  ///< σ(γ · min slack): default, exact step limit.
  kProduct,   ///< Π σ(γ · slack): independent-constraints alternative.
};

/// Result of searching the bundle price for a candidate merge.
struct MergeGainResult {
  bool feasible = false;          ///< True iff some admissible price gains > 0.
  double bundle_price = 0.0;      ///< Gain-maximizing price (if feasible).
  double gain = 0.0;              ///< Expected net revenue gain at that price.
  double expected_adopters = 0.0; ///< Expected bundle buyers at that price.
};

/// Description of one side of a merge: the offer's raw WTP vector, the θ
/// scale that turns raw sums into effective WTP, its already-fixed price,
/// and the per-consumer *payment vector* of the side's offer subtree —
/// what each consumer currently (expectedly) spends on this side, counting
/// nested component offers. Payments are what the gain computation nets out
/// when a consumer upgrades to the merged bundle; using the subtree payment
/// (rather than just the side's top price) keeps the incremental revenue
/// accounting exact across multiple merge levels.
struct MergeSide {
  const SparseWtpVector* raw = nullptr;
  double scale = 1.0;
  double price = 0.0;
  const SparseWtpVector* payments = nullptr;

  // Optional dense (SoA) view of the same offer, supplied by an offer graph
  // that keeps per-offer columns (the matching bundler's, when the gate
  // lets it). When all three pointers are set on both sides, MergeGain stages
  // the joint audience by iterating the support-union bitset over the dense
  // columns. Otherwise it walks the sparse vectors in one forward merge: the
  // two raw vectors side by side, with one cursor per payment vector. Both
  // stagings yield the same values in the same order, so the result does not
  // depend on which one ran. `wtp_col` and `payments_col` are
  // num-users-sized arrays, zero where the consumer is absent; `support` has
  // a bit per consumer with positive raw WTP.
  const double* wtp_col = nullptr;
  const double* payments_col = nullptr;
  const Bitset* support = nullptr;

  bool has_dense_view() const {
    return wtp_col != nullptr && payments_col != nullptr && support != nullptr;
  }
};

/// Prices candidate mixed-bundling merges.
class MixedPricer {
 public:
  /// `num_levels` is the price-grid resolution T; the sentinel 0 selects
  /// exact pricing over the consumers' adoption thresholds (step model only,
  /// mirroring OfferPricer's exact mode).
  MixedPricer(AdoptionModel model, int num_levels = 100,
              MixedComposition composition = MixedComposition::kMinSlack);

  /// Evaluates offering the merged bundle (raw WTP = side1.raw + side2.raw,
  /// effective scale `merged_scale` = 1+θ) alongside both sides at their
  /// fixed prices. Searches grid prices inside (max(p1,p2), p1+p2).
  ///
  /// The workspace-taking overload is allocation-free on warm buffers — the
  /// per-candidate path of the bundling algorithms; the convenience overload
  /// routes through it with a throwaway workspace.
  MergeGainResult MergeGain(const MergeSide& side1, const MergeSide& side2,
                            double merged_scale) const;
  MergeGainResult MergeGain(const MergeSide& side1, const MergeSide& side2,
                            double merged_scale, PricingWorkspace* ws) const;

  /// Generalization to m ≥ 2 components offered alongside the bundle (used
  /// by the mixed frequent-itemset baseline, whose candidate bundles come
  /// with all their items as components): consumer u adopts at price p iff
  ///     w(u,b) ≥ p   and   ∀j: p − p_j ≤ Σ_{l≠j} w(u,c_l),
  /// with window max_j p_j < p < Σ_j p_j. For two sides it coincides with
  /// MergeGain (asserted in tests).
  MergeGainResult MultiMergeGain(const std::vector<MergeSide>& sides,
                                 double merged_scale) const;
  MergeGainResult MultiMergeGain(const std::vector<MergeSide>& sides,
                                 double merged_scale, PricingWorkspace* ws) const;

  /// Materializes the payment vector of the merged offer at the chosen
  /// bundle price: adopters pay `price`; everyone else keeps paying what
  /// they paid on the two sides. (Sigmoid model: expectation over adoption.)
  SparseWtpVector BuildMergedPayments(const MergeSide& side1,
                                      const MergeSide& side2,
                                      double merged_scale, double price) const;

  /// Per-consumer expected payment for a standalone offer: price × adoption
  /// probability (step: price iff affordable). Seeds the singleton payment
  /// vectors the mixed bundlers thread through merge levels.
  SparseWtpVector BuildStandalonePayments(const SparseWtpVector& raw,
                                          double scale, double price) const;

  const AdoptionModel& model() const { return model_; }

 private:
  MergeGainResult MergeGainStep(const MergeSide& side1, const MergeSide& side2,
                                double merged_scale, PricingWorkspace* ws) const;
  MergeGainResult MergeGainSigmoid(const MergeSide& side1, const MergeSide& side2,
                                   double merged_scale, PricingWorkspace* ws) const;

  AdoptionModel model_;
  int num_levels_;
  MixedComposition composition_;
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_PRICING_MIXED_PRICER_H_
