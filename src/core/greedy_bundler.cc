#include "core/greedy_bundler.h"

#include <algorithm>
#include <queue>

#include "core/offer_ops.h"
#include "pricing/mixed_pricer.h"
#include "pricing/offer_pricer.h"
#include "util/check.h"
#include "util/timer.h"

namespace bundlemine {
namespace {

constexpr double kGainEpsilon = 1e-9;

struct Offer {
  Bundle items;
  SparseWtpVector raw;
  // Mixed bundling: per-consumer subtree payment vector (see MergeSide).
  SparseWtpVector payments;
  double price = 0.0;
  double standalone = 0.0;
  double buyers = 0.0;
  double attributed = 0.0;
  double increment = 0.0;
  bool alive = true;
  int child1 = -1;
  int child2 = -1;
};

// An evaluated candidate merge of offers a and b (by stable offer index).
struct PairOutcome {
  double gain = 0.0;
  double price = 0.0;
  double revenue = 0.0;  // Pure: standalone revenue of the merged offer.
  double buyers = 0.0;
};

// Heap entry: the key of a candidate merge. The popped live pair is priced
// again for its outcome, so the heap holds 16 bytes per candidate.
struct HeapEntry {
  double gain;
  int a;
  int b;

  bool operator<(const HeapEntry& other) const {
    if (gain != other.gain) return gain < other.gain;  // Max-heap by gain.
    if (a != other.a) return a > other.a;
    return b > other.b;
  }
};

}  // namespace

BundleSolution GreedyBundler::Solve(const BundleConfigProblem& problem,
                                    SolveContext& context) const {
  BM_CHECK(problem.wtp != nullptr);
  const WtpMatrix& wtp = *problem.wtp;
  WallTimer timer;
  const int k = problem.EffectiveMaxSize();
  const bool pure = problem.strategy == BundlingStrategy::kPure;
  const char* method_name = pure ? "Pure Greedy" : "Mixed Greedy";

  OfferPricer pricer(problem.adoption, problem.price_levels);
  MixedPricer mixed(problem.adoption, problem.price_levels,
                    problem.mixed_composition);
  PricingWorkspace& ws = context.workspace();
  std::vector<Offer> offers;

  offers.reserve(static_cast<std::size_t>(wtp.num_items()) * 2);
  double total = 0.0;
  for (ItemId i = 0; i < wtp.num_items(); ++i) {
    Offer o;
    o.items = Bundle::Of(i);
    o.raw = wtp.ItemVector(i);
    PricedOffer priced = pricer.PriceOffer(o.raw, 1.0, &ws);
    o.price = priced.price;
    o.standalone = priced.revenue;
    o.buyers = priced.expected_buyers;
    o.attributed = priced.revenue;
    o.increment = priced.revenue;
    if (!pure) o.payments = mixed.BuildStandalonePayments(o.raw, 1.0, o.price);
    total += priced.revenue;
    offers.push_back(std::move(o));
  }

  BundleSolution solution;
  solution.method = method_name;
  solution.trace.push_back(
      IterationStat{0, total, timer.Seconds(), static_cast<int>(offers.size())});

  // Prices merging offers a and b in workspace `w`; false when the merge is
  // oversize or gains nothing. Reads only offers that stay alive and
  // unchanged while a candidate waits in the heap, so pricing a pair again
  // yields the same outcome bit for bit.
  auto evaluate = [&](int ai, int bi, PricingWorkspace* w,
                      PairOutcome* out) -> bool {
    const Offer& a = offers[static_cast<std::size_t>(ai)];
    const Offer& b = offers[static_cast<std::size_t>(bi)];
    int merged_size = a.items.size() + b.items.size();
    if (merged_size > k) return false;
    double merged_scale = BundleScale(merged_size, problem.theta);
    if (merged_scale <= 0.0) return false;
    if (pure) {
      PricedOffer priced =
          PriceMergedPair(a.raw, b.raw, merged_scale, pricer, w);
      out->gain = priced.revenue - a.standalone - b.standalone;
      out->price = priced.price;
      out->revenue = priced.revenue;
      out->buyers = priced.expected_buyers;
      return out->gain > kGainEpsilon;
    }
    MergeSide sa{&a.raw, BundleScale(a.items.size(), problem.theta), a.price,
                 &a.payments};
    MergeSide sb{&b.raw, BundleScale(b.items.size(), problem.theta), b.price,
                 &b.payments};
    MergeGainResult r = mixed.MergeGain(sa, sb, merged_scale, w);
    if (!r.feasible || r.gain <= kGainEpsilon) return false;
    out->gain = r.gain;
    out->price = r.bundle_price;
    out->revenue = 0.0;
    out->buyers = r.expected_adopters;
    return true;
  };

  // Prices the candidate pairs across the context's workers and pushes the
  // gaining ones, gathered in candidate order.
  std::priority_queue<HeapEntry> heap;
  std::vector<std::pair<int, int>> pairs;
  auto push_gaining = [&] {
    EvaluateInBlocks<PairOutcome>(
        context, pairs.size(),
        [&](std::size_t i, PricingWorkspace* w, PairOutcome* out) {
          return evaluate(pairs[i].first, pairs[i].second, w, out);
        },
        [&](std::size_t i, const PairOutcome& out) {
          heap.push(HeapEntry{out.gain, pairs[i].first, pairs[i].second});
        });
  };

  // Seed the heap with co-interested item pairs (or all pairs when the
  // pruning is disabled).
  if (k >= 2) {
    if (problem.prune_co_interest) {
      pairs = wtp.CoInterestedPairs();
    } else {
      for (int i = 0; i < wtp.num_items(); ++i) {
        for (int j = i + 1; j < wtp.num_items(); ++j) pairs.emplace_back(i, j);
      }
    }
    push_gaining();
  }

  int iteration = 0;
  while (!heap.empty()) {
    if (context.DeadlineExceeded()) {
      context.stats().deadline_hit = true;
      break;
    }
    HeapEntry top = heap.top();
    heap.pop();
    if (!offers[static_cast<std::size_t>(top.a)].alive ||
        !offers[static_cast<std::size_t>(top.b)].alive) {
      continue;  // Lazy deletion: a participant was absorbed meanwhile.
    }
    // The heap keeps only the key; price the pair again for its outcome.
    // This repeats an evaluation, so it does not count in pairs_evaluated.
    PairOutcome best;
    const bool gains = evaluate(top.a, top.b, &ws, &best);
    BM_CHECK(gains && best.gain == top.gain);

    // Collapse the pair.
    ++iteration;
    context.stats().rounds = iteration;
    ++context.stats().merges;
    Offer merged;
    {
      Offer& a = offers[static_cast<std::size_t>(top.a)];
      Offer& b = offers[static_cast<std::size_t>(top.b)];
      merged.items = Bundle::Union(a.items, b.items);
      merged.raw = SparseWtpVector::Merge(a.raw, b.raw);
      merged.child1 = top.a;
      merged.child2 = top.b;
      merged.price = best.price;
      merged.buyers = best.buyers;
      merged.increment = best.gain;
      if (pure) {
        merged.standalone = best.revenue;
        merged.attributed = best.revenue;
      } else {
        merged.standalone = 0.0;
        merged.attributed = a.attributed + b.attributed + best.gain;
        MergeSide sa{&a.raw, BundleScale(a.items.size(), problem.theta), a.price,
                     &a.payments};
        MergeSide sb{&b.raw, BundleScale(b.items.size(), problem.theta), b.price,
                     &b.payments};
        merged.payments = mixed.BuildMergedPayments(
            sa, sb, BundleScale(merged.items.size(), problem.theta), best.price);
      }
      // Absorbed offers are only emitted from here on (items, price,
      // increment, buyers), and evaluate() never sees a dead offer, so their
      // audience and payment vectors can go.
      a.raw = SparseWtpVector();
      a.payments = SparseWtpVector();
      b.raw = SparseWtpVector();
      b.payments = SparseWtpVector();
      a.alive = false;
      b.alive = false;
    }
    total += top.gain;
    int new_id = static_cast<int>(offers.size());
    offers.push_back(std::move(merged));

    // Evaluate the new bundle against all surviving offers.
    const Offer& nb = offers[static_cast<std::size_t>(new_id)];
    pairs.clear();
    for (int other = 0; other < new_id; ++other) {
      const Offer& o = offers[static_cast<std::size_t>(other)];
      if (!o.alive) continue;
      if (problem.prune_co_interest && !SupportsIntersect(nb.raw, o.raw)) {
        continue;
      }
      pairs.emplace_back(other, new_id);
    }
    push_gaining();

    int alive = 0;
    for (const Offer& o : offers) alive += o.alive ? 1 : 0;
    solution.trace.push_back(IterationStat{iteration, total, timer.Seconds(), alive});
  }

  // Emit the configuration.
  for (const Offer& o : offers) {
    if (!o.alive) continue;
    PricedBundle pb;
    pb.items = o.items;
    pb.price = o.price;
    pb.revenue = pure ? o.standalone : o.increment;
    pb.expected_buyers = o.buyers;
    pb.is_component_offer = false;
    solution.offers.push_back(std::move(pb));
  }
  if (!pure) {
    for (const Offer& o : offers) {
      if (o.alive) continue;
      PricedBundle pb;
      pb.items = o.items;
      pb.price = o.price;
      pb.revenue = o.increment;
      pb.expected_buyers = o.buyers;
      pb.is_component_offer = true;
      solution.offers.push_back(std::move(pb));
    }
  }
  solution.total_revenue = total;
  solution.solve_seconds = timer.Seconds();
  return solution;
}

}  // namespace bundlemine
