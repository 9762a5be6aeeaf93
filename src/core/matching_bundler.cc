#include "core/solvers.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/offer_graph.h"
#include "core/offer_ops.h"
#include "matching/max_weight_matching.h"
#include "matching/simple_matchers.h"
#include "util/check.h"
#include "util/timer.h"

namespace bundlemine {

BundleSolution SolveMatching(const BundleConfigProblem& problem,
                             SolveContext& context) {
  BM_CHECK(problem.wtp != nullptr);
  const WtpMatrix& wtp = *problem.wtp;
  WallTimer timer;
  const int k = problem.EffectiveMaxSize();
  OfferGraph graph(problem, /*dense_columns=*/true, &context.workspace(),
                   context.resolve_hints());
  const MatchingPairCache* prior = graph.prior();

  int iteration = 0;
  std::vector<IterationStat> trace;
  trace.push_back(IterationStat{0, graph.TotalRevenue(), timer.Seconds(),
                                graph.AliveCount()});

  // Candidates are evaluated in fixed-size blocks: generation appends into
  // `pairs` and FlushBlock fans the block out across the pool, keeping only
  // the positive-gain edges. Blocks are processed in generation order and
  // gathered in index order, so the edge list — and hence the whole solve —
  // stays bit-identical to a serial run while candidate memory stays bounded
  // at the block size instead of the full O(n²) candidate set.
  std::vector<std::pair<int, int>> pairs;
  std::vector<PairOutcome> results;
  std::vector<char> has_gain;
  std::vector<char> reused;
  std::vector<PairOutcome> edges;
  pairs.reserve(kCandidateBlock);

  auto flush_block = [&] {
    if (pairs.empty()) return;
    results.resize(pairs.size());
    has_gain.assign(pairs.size(), 0);
    reused.assign(pairs.size(), 0);
    std::int64_t reused_count = 0;
    if (prior != nullptr) {
      for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
        const auto [a, b] = pairs[idx];
        const int na = graph.offer(a).prior_node;
        const int nb = graph.offer(b).prior_node;
        if (na < 0 || nb < 0) continue;
        const std::optional<MatchingPairCache::Outcome> out =
            prior->Find(na, nb);
        if (!out) continue;
        reused[idx] = 1;
        ++reused_count;
        if (out->has_gain) {
          has_gain[idx] = 1;
          results[idx] = graph.FromOutcome(a, b, *out);
        }
      }
    }
    auto evaluate = [&](std::size_t idx, int slot) {
      if (reused[idx]) return;
      has_gain[idx] =
          graph.EvaluatePair(pairs[idx].first, pairs[idx].second,
                             &results[idx], &context.workspace(slot))
              ? 1
              : 0;
    };
    context.ParallelFor(pairs.size(), evaluate);
    context.stats().pairs_evaluated +=
        static_cast<std::int64_t>(pairs.size()) - reused_count;
    context.stats().pairs_reused += reused_count;
    if (graph.fill() != nullptr) {
      // Record every outcome (gain or not) for the next resolve, keyed by
      // this solve's node ids, which are its offer indices.
      for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
        graph.fill()->Record(pairs[idx].first, pairs[idx].second,
                             has_gain[idx] ? graph.ToOutcome(results[idx])
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
      for (std::size_t idx = 0; idx < graph.offers().size(); ++idx) {
        if (graph.offers()[idx].alive) {
          alive_ids.push_back(static_cast<int>(idx));
        }
      }
      for (std::size_t x = 0; x < alive_ids.size(); ++x) {
        for (std::size_t y = x + 1; y < alive_ids.size(); ++y) {
          const Offer& a = graph.offer(alive_ids[x]);
          const Offer& b = graph.offer(alive_ids[y]);
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
    graph.ClearNew();
    if (edges.empty()) break;

    // ---- Maximum-weight matching over positive-gain edges. ----
    // Compact vertex ids for offers incident to at least one edge.
    std::vector<int> vertex_of_offer(graph.offers().size(), -1);
    std::vector<int> offer_of_vertex;
    for (const PairOutcome& e : edges) {
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
      for (const PairOutcome& e : edges) {
        matcher.AddEdge(vertex_of_offer[static_cast<std::size_t>(e.a)],
                        vertex_of_offer[static_cast<std::size_t>(e.b)], e.gain);
      }
      mate = matcher.Solve().mate;
    } else {
      std::vector<WeightedEdge> wedges;
      wedges.reserve(edges.size());
      for (const PairOutcome& e : edges) {
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
    for (const PairOutcome& e : edges) {
      int va = vertex_of_offer[static_cast<std::size_t>(e.a)];
      int vb = vertex_of_offer[static_cast<std::size_t>(e.b)];
      if (mate[static_cast<std::size_t>(va)] == vb) {
        graph.Merge(e);
        ++merges;
      }
    }
    if (merges == 0) break;
    context.stats().merges += merges;
    trace.push_back(IterationStat{iteration, graph.TotalRevenue(),
                                  timer.Seconds(), graph.AliveCount()});
  }

  if (graph.fill() != nullptr) graph.fill()->Finish();
  BundleSolution solution = graph.BuildSolution(graph.TotalRevenue());
  solution.trace = std::move(trace);
  if (solution.trace.empty() ||
      solution.trace.back().total_revenue != solution.total_revenue) {
    solution.trace.push_back(IterationStat{iteration, solution.total_revenue,
                                           timer.Seconds(),
                                           graph.AliveCount()});
  }
  return solution;
}

}  // namespace bundlemine
