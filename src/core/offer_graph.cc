#include "core/offer_graph.h"

#include <bit>
#include <cstdint>
#include <span>
#include <utility>

#include "core/offer_ops.h"
#include "util/check.h"

namespace bundlemine {
namespace {

// Pure bundling's merge gain. A cached pair recomputes its gain with this
// same expression, so it stays bit-identical to a fresh evaluation.
double PureGain(const Offer& a, const Offer& b, double revenue) {
  return revenue - a.standalone - b.standalone;
}

// Dense-column variant of PriceMergedPair: gathers scale·(a.col[u] +
// b.col[u]) over the union of the two support bitsets in ascending user
// order. Under the dense-column gate (every WTP entry positive) the staged
// array is bit-identical to the sorted merge's: union bits enumerate exactly
// the merged entries in the same order, and the absent side contributes
// +0.0, which addition preserves exactly.
PricedOffer PriceMergedPairDense(const Offer& a, const Offer& b, double scale,
                                 const OfferPricer& pricer,
                                 PricingWorkspace* ws) {
  std::vector<double>& merged = ws->values;
  merged.clear();
  const std::span<const std::uint64_t> wa = a.support.words();
  const std::span<const std::uint64_t> wb = b.support.words();
  for (std::size_t k = 0; k < wa.size(); ++k) {
    std::uint64_t word = wa[k] | wb[k];
    while (word != 0) {
      const std::size_t u =
          (k << 6) + static_cast<std::size_t>(std::countr_zero(word));
      word &= word - 1;
      merged.push_back(scale * (a.col[u] + b.col[u]));
    }
  }
  return pricer.PriceEffectiveValues(merged, ws);
}

// The dense-column gate: every WTP entry positive (zeros and negatives are
// filtered by the sparse join but not by a support union) and the
// singletons' columns within a fixed memory budget.
bool DenseColumnsFit(const WtpMatrix& wtp, bool pure) {
  constexpr std::int64_t kDenseBudgetBytes = std::int64_t{256} << 20;
  const std::int64_t dense_bytes = static_cast<std::int64_t>(wtp.num_items()) *
                                   wtp.num_users() *
                                   static_cast<std::int64_t>(sizeof(double)) *
                                   (pure ? 1 : 2);
  if (dense_bytes > kDenseBudgetBytes) return false;
  for (ItemId i = 0; i < wtp.num_items(); ++i) {
    for (const WtpEntry& e : wtp.ItemUsers(i)) {
      if (e.w <= 0.0) return false;
    }
  }
  return true;
}

}  // namespace

OfferGraph::OfferGraph(const BundleConfigProblem& problem, bool dense_columns,
                       PricingWorkspace* ws, const ResolveHints* hints)
    : pricer_(problem.adoption, problem.price_levels),
      mixed_(problem.adoption, problem.price_levels, problem.mixed_composition),
      theta_(problem.theta),
      max_size_(problem.EffectiveMaxSize()),
      num_users_(problem.wtp->num_users()),
      pure_(problem.strategy == BundlingStrategy::kPure) {
  const WtpMatrix& wtp = *problem.wtp;
  dense_ = dense_columns && DenseColumnsFit(wtp, pure_);

  // Incremental re-solve hints. Each offer carries the prior solve's merge-
  // tree node it equals: a singleton maps to its leaf unless its item is
  // dirty, a merge to the prior node with the same children in the same
  // order. EvaluatePair is a pure function of the two offers plus cell-fixed
  // configuration (scale, pricer, strategy), so the prior outcome of two
  // mapped offers is exact in any round. User additions/removals only add
  // or drop zero-WTP entries for untouched items, which never change the
  // priced scalars.
  const std::vector<char>* dirty = nullptr;
  if (hints != nullptr && hints->prior != nullptr &&
      hints->dirty_items != nullptr &&
      hints->dirty_items->size() == static_cast<std::size_t>(wtp.num_items())) {
    prior_ = hints->prior;
    dirty = hints->dirty_items;
  }
  if (hints != nullptr && hints->fill != nullptr) {
    fill_ = hints->fill;
    fill_->Begin(wtp.num_items(), hints->prior);
  }

  // A merge tree over n items has at most 2n − 1 nodes, so offers never
  // move while candidates are evaluated.
  offers_.reserve(static_cast<std::size_t>(wtp.num_items()) * 2);
  for (ItemId i = 0; i < wtp.num_items(); ++i) {
    Offer o;
    o.items = Bundle::Of(i);
    if (prior_ != nullptr && !(*dirty)[static_cast<std::size_t>(i)]) {
      o.prior_node = prior_->FindLeaf(i);
    }
    o.raw = wtp.ItemVector(i);
    PricedOffer priced = pricer_.PriceOffer(o.raw, 1.0, ws);
    o.price = priced.price;
    o.standalone = priced.revenue;
    o.buyers = priced.expected_buyers;
    o.attributed = priced.revenue;
    o.increment = priced.revenue;
    if (!pure_) {
      o.payments = mixed_.BuildStandalonePayments(o.raw, 1.0, o.price);
    }
    RefreshViews(&o);
    offers_.push_back(std::move(o));
  }
}

void OfferGraph::RefreshViews(Offer* o) const {
  o->support = Bitset(static_cast<std::size_t>(num_users_));
  for (const WtpEntry& e : o->raw.entries()) {
    if (e.w > 0.0) o->support.Set(static_cast<std::size_t>(e.id));
  }
  if (!dense_) return;
  o->col.assign(static_cast<std::size_t>(num_users_), 0.0);
  for (const WtpEntry& e : o->raw.entries()) {
    o->col[static_cast<std::size_t>(e.id)] = e.w;
  }
  if (!pure_) {
    o->pay_col.assign(static_cast<std::size_t>(num_users_), 0.0);
    for (const WtpEntry& e : o->payments.entries()) {
      o->pay_col[static_cast<std::size_t>(e.id)] = e.w;
    }
  }
}

bool OfferGraph::EvaluatePair(int ai, int bi, PairOutcome* out,
                              PricingWorkspace* ws) const {
  const Offer& a = offer(ai);
  const Offer& b = offer(bi);
  const int merged_size = a.items.size() + b.items.size();
  if (merged_size > max_size_) return false;
  const double merged_scale = Scale(merged_size);
  if (merged_scale <= 0.0) return false;
  out->a = ai;
  out->b = bi;
  if (pure_) {
    PricedOffer priced =
        dense_ ? PriceMergedPairDense(a, b, merged_scale, pricer_, ws)
               : PriceMergedPair(a.raw, b.raw, merged_scale, pricer_, ws);
    const double gain = PureGain(a, b, priced.revenue);
    if (gain <= kGainEpsilon) return false;
    out->gain = gain;
    out->price = priced.price;
    out->revenue = priced.revenue;
    out->buyers = priced.expected_buyers;
    return true;
  }
  MergeSide sa = SideOf(a);
  MergeSide sb = SideOf(b);
  if (dense_) {
    sa.wtp_col = a.col.data();
    sa.payments_col = a.pay_col.data();
    sa.support = &a.support;
    sb.wtp_col = b.col.data();
    sb.payments_col = b.pay_col.data();
    sb.support = &b.support;
  }
  MergeGainResult r = mixed_.MergeGain(sa, sb, merged_scale, ws);
  if (!r.feasible || r.gain <= kGainEpsilon) return false;
  out->gain = r.gain;
  out->price = r.bundle_price;
  out->revenue = 0.0;
  out->buyers = r.expected_adopters;
  return true;
}

MatchingPairCache::Outcome OfferGraph::ToOutcome(const PairOutcome& e) const {
  return {true, pure_ ? e.revenue : e.gain, e.price, e.buyers};
}

PairOutcome OfferGraph::FromOutcome(
    int a, int b, const MatchingPairCache::Outcome& out) const {
  PairOutcome e{a, b, out.value, out.price, 0.0, out.buyers};
  if (pure_) {
    e.revenue = out.value;
    e.gain = PureGain(offer(a), offer(b), out.value);
  }
  return e;
}

int OfferGraph::Merge(const PairOutcome& edge) {
  Offer& a = offers_[static_cast<std::size_t>(edge.a)];
  Offer& b = offers_[static_cast<std::size_t>(edge.b)];
  Offer merged;
  merged.items = Bundle::Union(a.items, b.items);
  merged.raw = SparseWtpVector::Merge(a.raw, b.raw);
  merged.child1 = edge.a;
  merged.child2 = edge.b;
  if (prior_ != nullptr) {
    merged.prior_node = prior_->FindInner(a.prior_node, b.prior_node);
  }
  if (fill_ != nullptr) {
    BM_CHECK_EQ(fill_->AddInner(edge.a, edge.b),
                static_cast<int>(offers_.size()));
  }
  merged.price = edge.price;
  merged.buyers = edge.buyers;
  merged.increment = edge.gain;
  if (pure_) {
    merged.standalone = edge.revenue;
    merged.attributed = edge.revenue;
  } else {
    merged.attributed = a.attributed + b.attributed + edge.gain;
    merged.payments = mixed_.BuildMergedPayments(
        SideOf(a), SideOf(b), Scale(merged.items.size()), edge.price);
  }
  RefreshViews(&merged);
  // Absorbed offers are never evaluated again and are only emitted from
  // here on (items, price, increment, buyers), so their audience, payment
  // and dense state can go: live column memory stays bounded by the
  // singleton count.
  for (Offer* absorbed : {&a, &b}) {
    absorbed->alive = false;
    absorbed->raw = SparseWtpVector();
    absorbed->payments = SparseWtpVector();
    absorbed->support = Bitset();
    std::vector<double>().swap(absorbed->col);
    std::vector<double>().swap(absorbed->pay_col);
  }
  offers_.push_back(std::move(merged));
  return static_cast<int>(offers_.size()) - 1;
}

double OfferGraph::TotalRevenue() const {
  double total = 0.0;
  for (const Offer& o : offers_) {
    if (o.alive) total += o.attributed;
  }
  return total;
}

int OfferGraph::AliveCount() const {
  int n = 0;
  for (const Offer& o : offers_) n += o.alive ? 1 : 0;
  return n;
}

BundleSolution OfferGraph::BuildSolution(double total_revenue) const {
  BundleSolution solution;
  auto emit = [&](const Offer& o, bool component) {
    PricedBundle pb;
    pb.items = o.items;
    pb.price = o.price;
    pb.revenue = pure_ ? o.standalone : o.increment;
    pb.expected_buyers = o.buyers;
    pb.is_component_offer = component;
    solution.offers.push_back(std::move(pb));
  };
  for (const Offer& o : offers_) {
    if (o.alive) emit(o, false);
  }
  if (!pure_) {
    // All absorbed offers are descendants of live roots: retain them in X′.
    for (const Offer& o : offers_) {
      if (!o.alive) emit(o, true);
    }
  }
  solution.total_revenue = total_revenue;
  return solution;
}

}  // namespace bundlemine
