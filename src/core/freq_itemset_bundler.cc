#include "core/solvers.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/offer_graph.h"
#include "core/offer_ops.h"
#include "core/resolve_hints.h"
#include "mining/mafia.h"
#include "mining/transactions.h"
#include "util/check.h"
#include "util/timer.h"

namespace bundlemine {
namespace {

// An evaluated candidate itemset-bundle.
struct Candidate {
  Bundle items;
  double gain = 0.0;
  double price = 0.0;
  double revenue = 0.0;  // Pure: standalone bundle revenue.
  double buyers = 0.0;
};

}  // namespace

BundleSolution SolveFreqItemset(const BundleConfigProblem& problem,
                                SolveContext& context) {
  BM_CHECK(problem.wtp != nullptr);
  const WtpMatrix& wtp = *problem.wtp;
  WallTimer timer;
  const bool pure = problem.strategy == BundlingStrategy::kPure;
  const int k = problem.EffectiveMaxSize();

  OfferPricer pricer(problem.adoption, problem.price_levels);
  MixedPricer mixed(problem.adoption, problem.price_levels,
                    problem.mixed_composition);

  // Per-item standalone pricing (components are always available
  // candidates): the singleton offers of an unmerged offer graph.
  const OfferGraph items(problem, /*dense_columns=*/false,
                         &context.workspace());
  auto item = [&](ItemId i) -> const Offer& { return items.offer(i); };

  // Mine maximal frequent itemsets as candidate bundles.
  MinerLimits limits;
  // The paper's 0.1% threshold is ⌈0.001 · 4449⌉ = 5 transactions on the
  // Amazon data; the absolute floor keeps that effective count on smaller
  // instances (a floor of 2 makes every co-rating pair frequent and the
  // maximal-itemset lattice explodes combinatorially).
  limits.min_support_count = std::max(
      5, static_cast<int>(std::ceil(problem.freq_min_support * wtp.num_users())));
  // Mine *uncapped* maximal itemsets (the paper's protocol) and filter
  // oversize candidates below: the k-capped maximal family is vastly larger
  // than the unrestricted one. Uncapped, the result depends on the
  // transactions and support only — not on θ, k or the strategy — which is
  // what lets freq cells share one mine.
  // Deadline coverage inside the mine itself: freq cells used to run the
  // miners unbounded and only honour the deadline between candidate
  // evaluations. A stopped mine yields fewer candidates; the configuration
  // assembled below stays structurally valid.
  limits.should_stop = DeadlineStopCondition(context);
  const ResolveHints* hints = context.resolve_hints();
  const ItemsetMiner mine = [&] {
    // An incremental resolve supplies the market's maintained transaction
    // view instead of a per-cell rebuild: WTP positivity (w = (stars/5)·λ·
    // price, stars > 0, price > 0) is λ-independent, so the one maintained
    // index matches FromWtp(wtp) bit-for-bit in every λ cell.
    const TransactionDb* hinted =
        hints != nullptr ? hints->transactions : nullptr;
    const bool use_hint = hinted != nullptr &&
                          hinted->num_items() == wtp.num_items() &&
                          hinted->num_transactions() == wtp.num_users();
    TransactionDb local_db;
    if (!use_hint) local_db = TransactionDb::FromWtp(wtp);
    const TransactionDb& db = use_hint ? *hinted : local_db;
    return std::make_shared<const std::vector<FrequentItemset>>(
        MineMaximalFrequent(db, limits));
  };
  // A deadline-bound solve mines on its own: it must not wait out another
  // request's unbounded mine of the same transactions, and its own mine,
  // possibly stopped early, must not be shared.
  const bool shared = hints != nullptr && hints->itemsets &&
                      context.options().deadline_seconds <= 0.0;
  const MaximalItemsets itemsets =
      shared
          ? hints->itemsets(limits.min_support_count, mine)
          : mine();

  // Evaluate candidates (size ≥ 2 only; size-1 candidates are the items)
  // across the context's workers, gathered in itemset order. A deadline
  // stops evaluation between blocks; the configuration is then assembled
  // from what has been priced so far (plus all singletons) and stays
  // structurally valid.
  std::vector<const FrequentItemset*> sized;
  for (const FrequentItemset& fi : *itemsets) {
    const int size = static_cast<int>(fi.items.size());
    if (size >= 2 && size <= k && BundleScale(size, problem.theta) > 0.0) {
      sized.push_back(&fi);
    }
  }
  auto evaluate = [&](std::size_t index, PricingWorkspace* w, Candidate* c) {
    const FrequentItemset& fi = *sized[index];
    const double scale =
        BundleScale(static_cast<int>(fi.items.size()), problem.theta);
    if (pure) {
      // Sum the component audiences per consumer of their support union,
      // in item order, and price the positive effective WTPs in ascending
      // user order: the values PriceOffer stages from the merged bundle
      // vector. The mixed path prices the items' vectors as separate sides.
      auto item_vector = [&](std::size_t j) -> const SparseWtpVector& {
        return item(fi.items[j]).raw;
      };
      w->StageUnion(fi.items.size(), item_vector);
      std::vector<double>& raw = w->consumer_state;
      raw.assign(w->users.size(), 0.0);
      for (std::size_t j = 0; j < fi.items.size(); ++j) {
        for (const WtpEntry& e : item_vector(j).entries()) {
          raw[static_cast<std::size_t>(w->RowOf(e.id))] += e.w;
        }
      }
      w->ReleaseUnion();
      w->values.clear();
      for (double v : raw) {
        if (scale * v > 0.0) w->values.push_back(scale * v);
      }
      PricedOffer priced = pricer.PriceEffectiveValues(w->values, w);
      double parts = 0.0;
      for (ItemId i : fi.items) parts += item(i).standalone;
      c->gain = priced.revenue - parts;
      c->price = priced.price;
      c->revenue = priced.revenue;
      c->buyers = priced.expected_buyers;
    } else {
      std::vector<MergeSide> sides;
      sides.reserve(fi.items.size());
      for (ItemId i : fi.items) {
        const Offer& o = item(i);
        sides.push_back(MergeSide{&o.raw, 1.0, o.price, &o.payments});
      }
      MergeGainResult r = mixed.MultiMergeGain(sides, scale, w);
      if (!r.feasible) return false;
      c->gain = r.gain;
      c->price = r.bundle_price;
      c->revenue = 0.0;
      c->buyers = r.expected_adopters;
    }
    return c->gain > kGainEpsilon;
  };
  std::vector<Candidate> candidates;
  EvaluateInBlocks<Candidate>(
      context, sized.size(), evaluate,
      [&](std::size_t index, const Candidate& c) {
        candidates.push_back(c);
        candidates.back().items = Bundle(std::vector<ItemId>(
            sized[index]->items.begin(), sized[index]->items.end()));
      });

  // Greedy selection by absolute gain with overlap removal.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.gain != b.gain) return a.gain > b.gain;
              return a.items < b.items;
            });
  std::vector<char> covered(static_cast<std::size_t>(wtp.num_items()), 0);
  std::vector<const Candidate*> selected;
  for (const Candidate& c : candidates) {
    bool free = true;
    for (ItemId i : c.items.items()) {
      if (covered[static_cast<std::size_t>(i)]) {
        free = false;
        break;
      }
    }
    if (!free) continue;
    for (ItemId i : c.items.items()) covered[static_cast<std::size_t>(i)] = 1;
    selected.push_back(&c);
  }

  // Assemble the configuration.
  BundleSolution solution;
  double total = 0.0;
  for (const Candidate* c : selected) {
    PricedBundle pb;
    pb.items = c->items;
    pb.price = c->price;
    pb.expected_buyers = c->buyers;
    if (pure) {
      pb.revenue = c->revenue;
      total += c->revenue;
    } else {
      pb.revenue = c->gain;
      total += c->gain;
    }
    solution.offers.push_back(std::move(pb));
  }
  for (ItemId i = 0; i < wtp.num_items(); ++i) {
    bool inside_selected = covered[static_cast<std::size_t>(i)];
    if (inside_selected && pure) continue;  // Pure: item only via its bundle.
    PricedBundle pb;
    pb.items = Bundle::Of(i);
    pb.price = item(i).price;
    pb.revenue = item(i).standalone;
    pb.expected_buyers = item(i).buyers;
    pb.is_component_offer = inside_selected;  // Mixed: retained in X′.
    total += pb.revenue;
    solution.offers.push_back(std::move(pb));
  }
  solution.total_revenue = total;
  solution.trace.push_back(IterationStat{0, total, timer.Seconds(),
                                         static_cast<int>(solution.TopOffers().size())});
  return solution;
}

}  // namespace bundlemine
