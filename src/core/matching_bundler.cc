#include "core/matching_bundler.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/offer_ops.h"
#include "core/resolve_hints.h"
#include "matching/max_weight_matching.h"
#include "mining/bitset.h"
#include "matching/simple_matchers.h"
#include "pricing/mixed_pricer.h"
#include "pricing/offer_pricer.h"
#include "util/check.h"
#include "util/timer.h"

namespace bundlemine {
namespace {

constexpr double kGainEpsilon = 1e-9;

// A vertex of the bundling graph: a live or absorbed offer.
struct Offer {
  Bundle items;
  SparseWtpVector raw;
  // Mixed bundling: per-consumer expected payment within this offer's
  // subtree (bundle + retained components). Keeps multi-level incremental
  // gains consistent — see MergeSide::payments.
  SparseWtpVector payments;
  // Consumers with positive raw WTP, one bit per user. Always maintained:
  // the co-interest pruning's support join runs on word-AND popcounts
  // instead of a sorted merge.
  Bitset support;
  // Dense SoA columns mirroring `raw` / `payments` (zero where absent).
  // Maintained only in dense mode (SolveState::dense); freed when the offer
  // is absorbed, so live column memory stays bounded by the singleton count.
  std::vector<double> col;
  std::vector<double> pay_col;
  double price = 0.0;       // Market price of this offer.
  double standalone = 0.0;  // Standalone expected revenue at `price` (pure).
  double buyers = 0.0;
  double attributed = 0.0;  // Cumulative revenue of this offer's subtree.
  double increment = 0.0;   // Own contribution (singleton rev / merge gain).
  bool alive = true;
  bool is_new = true;       // Formed in the previous round.
  int child1 = -1;
  int child2 = -1;
  // The node of the prior solve's merge tree this offer equals (same
  // children, same order, untouched items), or -1.
  int prior_node = -1;
};

// A candidate merge with its evaluated outcome.
struct CandidateEdge {
  int a = 0;
  int b = 0;
  double gain = 0.0;
  double price = 0.0;     // Price of the merged offer.
  double revenue = 0.0;   // Pure: standalone revenue of the merged offer.
  double buyers = 0.0;
};

struct SolveState {
  const BundleConfigProblem* problem;
  OfferPricer pricer;
  MixedPricer mixed;
  std::vector<Offer> offers;
  // Incremental re-solve: the previous solve's outcomes (null: none usable)
  // and the sink for this solve's (null: not cached).
  const MatchingPairCache* prior = nullptr;
  MatchingPairCache* fill = nullptr;
  int num_users = 0;
  // Dense mode: per-offer SoA columns feed the SIMD pricing kernels from
  // contiguous memory instead of sorted merges over sparse entries.
  bool dense = false;

  SolveState(const BundleConfigProblem& p)
      : problem(&p),
        pricer(p.adoption, p.price_levels),
        mixed(p.adoption, p.price_levels, p.mixed_composition) {}

  double Scale(int size) const { return BundleScale(size, problem->theta); }

  // Pure bundling's merge gain. A cached pair recomputes its gain with this
  // same expression, so it stays bit-identical to a fresh evaluation.
  static double PureGain(const Offer& a, const Offer& b, double revenue) {
    return revenue - a.standalone - b.standalone;
  }

  // Rebuilds an offer's support bitset (and, in dense mode, its WTP and
  // payment columns) from its sparse vectors.
  void RefreshDenseViews(Offer* o) const {
    o->support = Bitset(static_cast<std::size_t>(num_users));
    for (const WtpEntry& e : o->raw.entries()) {
      if (e.w > 0.0) o->support.Set(static_cast<std::size_t>(e.id));
    }
    if (!dense) return;
    o->col.assign(static_cast<std::size_t>(num_users), 0.0);
    for (const WtpEntry& e : o->raw.entries()) {
      o->col[static_cast<std::size_t>(e.id)] = e.w;
    }
    if (problem->strategy == BundlingStrategy::kMixed) {
      o->pay_col.assign(static_cast<std::size_t>(num_users), 0.0);
      for (const WtpEntry& e : o->payments.entries()) {
        o->pay_col[static_cast<std::size_t>(e.id)] = e.w;
      }
    }
  }

  // Evaluates merging offers a and b; returns false when no positive gain.
  // Reads only shared immutable state plus the caller's workspace, so
  // distinct candidates may be evaluated concurrently.
  bool EvaluatePair(int ai, int bi, CandidateEdge* edge,
                    PricingWorkspace* ws) const {
    const Offer& a = offers[static_cast<std::size_t>(ai)];
    const Offer& b = offers[static_cast<std::size_t>(bi)];
    int merged_size = a.items.size() + b.items.size();
    double merged_scale = Scale(merged_size);
    if (merged_scale <= 0.0) return false;
    edge->a = ai;
    edge->b = bi;
    if (problem->strategy == BundlingStrategy::kPure) {
      PricedOffer priced =
          dense ? PriceMergedPairDense(a.col.data(), a.support, b.col.data(),
                                       b.support, merged_scale, pricer, ws)
                : PriceMergedPair(a.raw, b.raw, merged_scale, pricer, ws);
      double gain = PureGain(a, b, priced.revenue);
      if (gain <= kGainEpsilon) return false;
      edge->gain = gain;
      edge->price = priced.price;
      edge->revenue = priced.revenue;
      edge->buyers = priced.expected_buyers;
      return true;
    }
    MergeSide sa{&a.raw, Scale(a.items.size()), a.price, &a.payments};
    MergeSide sb{&b.raw, Scale(b.items.size()), b.price, &b.payments};
    if (dense) {
      sa.wtp_col = a.col.data();
      sa.payments_col = a.pay_col.data();
      sa.support = &a.support;
      sb.wtp_col = b.col.data();
      sb.payments_col = b.pay_col.data();
      sb.support = &b.support;
    }
    MergeGainResult r = mixed.MergeGain(sa, sb, merged_scale, ws);
    if (!r.feasible || r.gain <= kGainEpsilon) return false;
    edge->gain = r.gain;
    edge->price = r.bundle_price;
    edge->revenue = 0.0;
    edge->buyers = r.expected_adopters;
    return true;
  }

  // The cached form of a positive-gain edge: pure keeps the merged revenue,
  // mixed keeps the gain (its merged revenue is always 0).
  MatchingPairCache::Outcome ToOutcome(const CandidateEdge& e) const {
    const bool pure = problem->strategy == BundlingStrategy::kPure;
    return {true, pure ? e.revenue : e.gain, e.price, e.buyers};
  }

  // Rebuilds the edge of offers (ai, bi) from their cached gain outcome.
  CandidateEdge FromOutcome(int ai, int bi,
                            const MatchingPairCache::Outcome& out) const {
    CandidateEdge e{ai, bi, out.value, out.price, 0.0, out.buyers};
    if (problem->strategy == BundlingStrategy::kPure) {
      e.revenue = out.value;
      e.gain = PureGain(offers[static_cast<std::size_t>(ai)],
                        offers[static_cast<std::size_t>(bi)], out.value);
    }
    return e;
  }

  double TotalRevenue() const {
    double total = 0.0;
    for (const Offer& o : offers) {
      if (o.alive) total += o.attributed;
    }
    return total;
  }

  int AliveCount() const {
    int n = 0;
    for (const Offer& o : offers) n += o.alive ? 1 : 0;
    return n;
  }

  // Collapses a selected edge into a new offer and returns its index.
  int Merge(const CandidateEdge& edge) {
    Offer& a = offers[static_cast<std::size_t>(edge.a)];
    Offer& b = offers[static_cast<std::size_t>(edge.b)];
    Offer merged;
    merged.items = Bundle::Union(a.items, b.items);
    merged.raw = SparseWtpVector::Merge(a.raw, b.raw);
    merged.child1 = edge.a;
    merged.child2 = edge.b;
    if (prior != nullptr) {
      merged.prior_node = prior->FindInner(a.prior_node, b.prior_node);
    }
    if (fill != nullptr) {
      BM_CHECK_EQ(fill->AddInner(edge.a, edge.b),
                  static_cast<int>(offers.size()));
    }
    if (problem->strategy == BundlingStrategy::kPure) {
      merged.price = edge.price;
      merged.standalone = edge.revenue;
      merged.buyers = edge.buyers;
      merged.attributed = edge.revenue;
      merged.increment = edge.gain;
    } else {
      merged.price = edge.price;
      merged.standalone = 0.0;
      merged.buyers = edge.buyers;
      merged.attributed = a.attributed + b.attributed + edge.gain;
      merged.increment = edge.gain;
      MergeSide sa{&a.raw, Scale(a.items.size()), a.price, &a.payments};
      MergeSide sb{&b.raw, Scale(b.items.size()), b.price, &b.payments};
      merged.payments = mixed.BuildMergedPayments(
          sa, sb, Scale(merged.items.size()), edge.price);
    }
    RefreshDenseViews(&merged);
    a.alive = false;
    b.alive = false;
    // Absorbed offers are never evaluated again; release their dense state
    // so live column memory stays bounded by the singleton count.
    a.support = Bitset();
    b.support = Bitset();
    std::vector<double>().swap(a.col);
    std::vector<double>().swap(b.col);
    std::vector<double>().swap(a.pay_col);
    std::vector<double>().swap(b.pay_col);
    offers.push_back(std::move(merged));
    return static_cast<int>(offers.size()) - 1;
  }
};

// Emits the final configuration (including mixed X′ components).
BundleSolution BuildSolution(const SolveState& st, const char* method_name) {
  BundleSolution solution;
  solution.method = method_name;
  const bool mixed = st.problem->strategy == BundlingStrategy::kMixed;
  // Top-level offers.
  for (const Offer& o : st.offers) {
    if (!o.alive) continue;
    PricedBundle pb;
    pb.items = o.items;
    pb.price = o.price;
    pb.revenue = mixed ? o.increment : o.standalone;
    pb.expected_buyers = o.buyers;
    pb.is_component_offer = false;
    solution.offers.push_back(std::move(pb));
  }
  if (mixed) {
    // All absorbed offers are descendants of live roots: retain them in X′.
    for (const Offer& o : st.offers) {
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
  solution.total_revenue = st.TotalRevenue();
  return solution;
}

}  // namespace

BundleSolution MatchingBundler::Solve(const BundleConfigProblem& problem,
                                      SolveContext& context) const {
  BM_CHECK(problem.wtp != nullptr);
  const WtpMatrix& wtp = *problem.wtp;
  WallTimer timer;
  SolveState st(problem);
  const int k = problem.EffectiveMaxSize();
  const bool pure = problem.strategy == BundlingStrategy::kPure;
  const char* method_name = pure ? "Pure Matching" : "Mixed Matching";

  // Dense-column gate: the SoA fast path must stay bit-identical to the
  // sparse sorted-merge path, which requires every WTP entry to be positive
  // (zeros/negatives are filtered by the sparse join but not by a support
  // union). Column memory is bounded: absorbed offers free their columns, so
  // at most num_items columns are live at once.
  st.num_users = wtp.num_users();
  bool all_positive = true;
  for (ItemId i = 0; i < wtp.num_items() && all_positive; ++i) {
    for (const WtpEntry& e : wtp.ItemUsers(i)) {
      if (e.w <= 0.0) {
        all_positive = false;
        break;
      }
    }
  }
  constexpr std::int64_t kDenseBudgetBytes = std::int64_t{256} << 20;
  const std::int64_t dense_bytes = static_cast<std::int64_t>(wtp.num_items()) *
                                   wtp.num_users() *
                                   static_cast<std::int64_t>(sizeof(double)) *
                                   (pure ? 1 : 2);
  st.dense = problem.soa_columns && all_positive &&
             dense_bytes <= kDenseBudgetBytes;

  // Incremental re-solve hints. Each offer carries the prior solve's merge-
  // tree node it equals: a singleton maps to its leaf unless its item is
  // dirty, a merge to the prior node with the same children in the same
  // order. EvaluatePair is a pure function of the two offers plus cell-fixed
  // configuration (scale, pricer, strategy), so the prior outcome of two
  // mapped offers is exact in any round. User additions/removals only add
  // or drop zero-WTP entries for untouched items, which never change the
  // priced scalars.
  const ResolveHints* hints = context.resolve_hints();
  if (hints != nullptr && hints->prior != nullptr &&
      hints->dirty_items != nullptr &&
      hints->dirty_items->size() == static_cast<std::size_t>(wtp.num_items())) {
    st.prior = hints->prior;
  }
  if (hints != nullptr && hints->fill != nullptr) {
    st.fill = hints->fill;
    st.fill->Begin(wtp.num_items(), hints->prior);
  }

  // Initialize singleton offers (= Components pricing).
  st.offers.reserve(static_cast<std::size_t>(wtp.num_items()) * 2);
  for (ItemId i = 0; i < wtp.num_items(); ++i) {
    Offer o;
    o.items = Bundle::Of(i);
    if (st.prior != nullptr &&
        !(*hints->dirty_items)[static_cast<std::size_t>(i)]) {
      o.prior_node = st.prior->FindLeaf(i);
    }
    o.raw = wtp.ItemVector(i);
    PricedOffer priced = st.pricer.PriceOffer(o.raw, 1.0, &context.workspace());
    o.price = priced.price;
    o.standalone = priced.revenue;
    o.buyers = priced.expected_buyers;
    o.attributed = priced.revenue;
    o.increment = priced.revenue;
    if (!pure) {
      o.payments = st.mixed.BuildStandalonePayments(o.raw, 1.0, o.price);
    }
    st.RefreshDenseViews(&o);
    st.offers.push_back(std::move(o));
  }

  int iteration = 0;
  BundleSolution trace_holder;
  trace_holder.trace.push_back(
      IterationStat{0, st.TotalRevenue(), timer.Seconds(), st.AliveCount()});

  // Candidates are evaluated in fixed-size blocks: generation appends into
  // `pairs` and FlushBlock fans the block out across the pool, keeping only
  // the positive-gain edges. Blocks are processed in generation order and
  // gathered in index order, so the edge list — and hence the whole solve —
  // stays bit-identical to a serial run while candidate memory stays bounded
  // at the block size instead of the full O(n²) candidate set.
  std::vector<std::pair<int, int>> pairs;
  std::vector<CandidateEdge> results;
  std::vector<char> has_gain;
  std::vector<char> reused;
  std::vector<CandidateEdge> edges;
  pairs.reserve(kCandidateBlock);

  auto flush_block = [&] {
    if (pairs.empty()) return;
    results.resize(pairs.size());
    has_gain.assign(pairs.size(), 0);
    reused.assign(pairs.size(), 0);
    std::int64_t reused_count = 0;
    if (st.prior != nullptr) {
      for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
        const auto [a, b] = pairs[idx];
        const int na = st.offers[static_cast<std::size_t>(a)].prior_node;
        const int nb = st.offers[static_cast<std::size_t>(b)].prior_node;
        if (na < 0 || nb < 0) continue;
        const std::optional<MatchingPairCache::Outcome> out =
            st.prior->Find(na, nb);
        if (!out) continue;
        reused[idx] = 1;
        ++reused_count;
        if (out->has_gain) {
          has_gain[idx] = 1;
          results[idx] = st.FromOutcome(a, b, *out);
        }
      }
    }
    auto evaluate = [&](std::size_t idx, int slot) {
      if (reused[idx]) return;
      has_gain[idx] = st.EvaluatePair(pairs[idx].first, pairs[idx].second,
                                      &results[idx], &context.workspace(slot))
                          ? 1
                          : 0;
    };
    context.ParallelFor(pairs.size(), evaluate);
    context.stats().pairs_evaluated +=
        static_cast<std::int64_t>(pairs.size()) - reused_count;
    context.stats().pairs_reused += reused_count;
    if (st.fill != nullptr) {
      // Record every outcome (gain or not) for the next resolve, keyed by
      // this solve's node ids, which are its offer indices.
      for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
        st.fill->Record(pairs[idx].first, pairs[idx].second,
                        has_gain[idx] ? st.ToOutcome(results[idx])
                                      : MatchingPairCache::Outcome{});
      }
    }
    for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
      if (has_gain[idx]) edges.push_back(results[idx]);
    }
    pairs.clear();
  };
  auto add_candidate = [&](int a, int b) {
    pairs.emplace_back(a, b);
    if (pairs.size() >= kCandidateBlock) flush_block();
  };

  while (k >= 2) {
    if (context.DeadlineExceeded()) {
      context.stats().deadline_hit = true;
      break;
    }
    ++iteration;
    context.stats().rounds = iteration;

    // ---- Candidate pair generation with the paper's prunings. ----
    edges.clear();
    if (iteration == 1) {
      if (problem.prune_co_interest) {
        for (const auto& [i, j] : wtp.CoInterestedPairs()) add_candidate(i, j);
      } else {
        for (int i = 0; i < wtp.num_items(); ++i) {
          for (int j = i + 1; j < wtp.num_items(); ++j) add_candidate(i, j);
        }
      }
    } else {
      // Later rounds: only edges touching a newly-formed vertex (unless the
      // pruning is disabled), subject to the size cap and co-interest.
      std::vector<int> alive_ids;
      for (std::size_t idx = 0; idx < st.offers.size(); ++idx) {
        if (st.offers[idx].alive) alive_ids.push_back(static_cast<int>(idx));
      }
      for (std::size_t x = 0; x < alive_ids.size(); ++x) {
        for (std::size_t y = x + 1; y < alive_ids.size(); ++y) {
          const Offer& a = st.offers[static_cast<std::size_t>(alive_ids[x])];
          const Offer& b = st.offers[static_cast<std::size_t>(alive_ids[y])];
          if (problem.prune_stale_edges && !a.is_new && !b.is_new) continue;
          if (a.items.size() + b.items.size() > k) continue;
          // Popcount-driven support join on the per-offer bitsets: word-AND
          // with early exit instead of a sorted merge over sparse entries.
          if (problem.prune_co_interest && !a.support.Intersects(b.support)) {
            continue;
          }
          add_candidate(alive_ids[x], alive_ids[y]);
        }
      }
    }
    flush_block();
    for (Offer& o : st.offers) o.is_new = false;
    if (edges.empty()) break;

    // ---- Maximum-weight matching over positive-gain edges. ----
    // Compact vertex ids for offers incident to at least one edge.
    std::vector<int> vertex_of_offer(st.offers.size(), -1);
    std::vector<int> offer_of_vertex;
    for (const CandidateEdge& e : edges) {
      for (int o : {e.a, e.b}) {
        if (vertex_of_offer[static_cast<std::size_t>(o)] == -1) {
          vertex_of_offer[static_cast<std::size_t>(o)] =
              static_cast<int>(offer_of_vertex.size());
          offer_of_vertex.push_back(o);
        }
      }
    }
    int num_vertices = static_cast<int>(offer_of_vertex.size());

    std::vector<int> mate;
    bool use_exact = problem.exact_matching_limit > 0 &&
                     num_vertices <= problem.exact_matching_limit;
    if (use_exact) {
      MaxWeightMatcher matcher(num_vertices);
      for (const CandidateEdge& e : edges) {
        matcher.AddEdge(vertex_of_offer[static_cast<std::size_t>(e.a)],
                        vertex_of_offer[static_cast<std::size_t>(e.b)], e.gain);
      }
      mate = matcher.Solve().mate;
    } else {
      std::vector<WeightedEdge> wedges;
      wedges.reserve(edges.size());
      for (const CandidateEdge& e : edges) {
        wedges.push_back(
            WeightedEdge{vertex_of_offer[static_cast<std::size_t>(e.a)],
                         vertex_of_offer[static_cast<std::size_t>(e.b)], e.gain});
      }
      mate = GreedyMaxWeightMatching(num_vertices, wedges).mate;
    }

    // ---- Collapse selected edges. ----
    // Candidate pairs are unique, so each matched pair maps back to exactly
    // one evaluated edge.
    int merges = 0;
    for (const CandidateEdge& e : edges) {
      int va = vertex_of_offer[static_cast<std::size_t>(e.a)];
      int vb = vertex_of_offer[static_cast<std::size_t>(e.b)];
      if (mate[static_cast<std::size_t>(va)] == vb) {
        st.Merge(e);
        ++merges;
      }
    }
    if (merges == 0) break;
    context.stats().merges += merges;
    trace_holder.trace.push_back(IterationStat{iteration, st.TotalRevenue(),
                                               timer.Seconds(), st.AliveCount()});
  }

  if (st.fill != nullptr) st.fill->Finish();
  BundleSolution solution = BuildSolution(st, method_name);
  solution.trace = std::move(trace_holder.trace);
  if (solution.trace.empty() ||
      solution.trace.back().total_revenue != solution.total_revenue) {
    solution.trace.push_back(IterationStat{iteration, solution.total_revenue,
                                           timer.Seconds(), st.AliveCount()});
  }
  solution.solve_seconds = timer.Seconds();
  return solution;
}

}  // namespace bundlemine
