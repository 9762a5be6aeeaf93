#include "core/freq_itemset_bundler.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/resolve_hints.h"
#include "mining/mafia.h"
#include "mining/transactions.h"
#include "pricing/mixed_pricer.h"
#include "pricing/offer_pricer.h"
#include "util/check.h"
#include "util/timer.h"

namespace bundlemine {
namespace {

constexpr double kGainEpsilon = 1e-9;

// An evaluated candidate itemset-bundle.
struct Candidate {
  Bundle items;
  double gain = 0.0;
  double price = 0.0;
  double revenue = 0.0;  // Pure: standalone bundle revenue.
  double buyers = 0.0;
};

}  // namespace

BundleSolution FreqItemsetBundler::Solve(const BundleConfigProblem& problem,
                                         SolveContext& context) const {
  BM_CHECK(problem.wtp != nullptr);
  const WtpMatrix& wtp = *problem.wtp;
  WallTimer timer;
  const bool pure = problem.strategy == BundlingStrategy::kPure;
  const int k = problem.EffectiveMaxSize();

  OfferPricer pricer(problem.adoption, problem.price_levels);
  MixedPricer mixed(problem.adoption, problem.price_levels,
                    problem.mixed_composition);
  PricingWorkspace& ws = context.workspace();

  // Per-item standalone pricing (components are always available candidates).
  std::vector<SparseWtpVector> item_raw;
  std::vector<PricedOffer> item_priced;
  std::vector<SparseWtpVector> item_payments;
  item_raw.reserve(static_cast<std::size_t>(wtp.num_items()));
  item_priced.reserve(static_cast<std::size_t>(wtp.num_items()));
  item_payments.reserve(static_cast<std::size_t>(wtp.num_items()));
  for (ItemId i = 0; i < wtp.num_items(); ++i) {
    item_raw.push_back(wtp.ItemVector(i));
    item_priced.push_back(pricer.PriceOffer(item_raw.back(), 1.0, &ws));
    item_payments.push_back(
        mixed.BuildStandalonePayments(item_raw.back(), 1.0, item_priced.back().price));
  }

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

  // Evaluate candidates (size ≥ 2 only; size-1 candidates are the items).
  std::vector<Candidate> candidates;
  for (const FrequentItemset& fi : *itemsets) {
    if (context.DeadlineExceeded()) {
      // Stop evaluating further itemsets; the configuration is assembled
      // from what has been priced so far (plus all singletons) and stays
      // structurally valid.
      context.stats().deadline_hit = true;
      break;
    }
    if (static_cast<int>(fi.items.size()) < 2 ||
        static_cast<int>(fi.items.size()) > k) {
      continue;
    }
    double scale = BundleScale(static_cast<int>(fi.items.size()), problem.theta);
    if (scale <= 0.0) continue;

    Candidate c;
    c.items = Bundle(std::vector<ItemId>(fi.items.begin(), fi.items.end()));
    ++context.stats().pairs_evaluated;
    if (pure) {
      // Merge the component audiences; the mixed path prices the items'
      // vectors as separate sides and never needs the merged one.
      SparseWtpVector raw;
      for (int item : fi.items) {
        raw = SparseWtpVector::Merge(raw, item_raw[static_cast<std::size_t>(item)]);
      }
      PricedOffer priced = pricer.PriceOffer(raw, scale, &ws);
      double parts = 0.0;
      for (int item : fi.items) {
        parts += item_priced[static_cast<std::size_t>(item)].revenue;
      }
      c.gain = priced.revenue - parts;
      c.price = priced.price;
      c.revenue = priced.revenue;
      c.buyers = priced.expected_buyers;
    } else {
      std::vector<MergeSide> sides;
      sides.reserve(fi.items.size());
      for (int item : fi.items) {
        std::size_t idx = static_cast<std::size_t>(item);
        sides.push_back(MergeSide{&item_raw[idx], 1.0, item_priced[idx].price,
                                  &item_payments[idx]});
      }
      MergeGainResult r = mixed.MultiMergeGain(sides, scale, &ws);
      if (!r.feasible) continue;
      c.gain = r.gain;
      c.price = r.bundle_price;
      c.buyers = r.expected_adopters;
    }
    if (c.gain > kGainEpsilon) candidates.push_back(std::move(c));
  }

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
  solution.method = pure ? "Pure FreqItemset" : "Mixed FreqItemset";
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
    pb.price = item_priced[static_cast<std::size_t>(i)].price;
    pb.revenue = item_priced[static_cast<std::size_t>(i)].revenue;
    pb.expected_buyers = item_priced[static_cast<std::size_t>(i)].expected_buyers;
    pb.is_component_offer = inside_selected;  // Mixed: retained in X′.
    total += pb.revenue;
    solution.offers.push_back(std::move(pb));
  }
  solution.total_revenue = total;
  solution.solve_seconds = timer.Seconds();
  solution.trace.push_back(IterationStat{0, total, solution.solve_seconds,
                                         static_cast<int>(solution.TopOffers().size())});
  return solution;
}

}  // namespace bundlemine
