#include "core/solvers.h"

#include <queue>
#include <utility>
#include <vector>

#include "core/offer_graph.h"
#include "core/offer_ops.h"
#include "util/check.h"
#include "util/timer.h"

namespace bundlemine {
namespace {

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

BundleSolution SolveGreedy(const BundleConfigProblem& problem,
                           SolveContext& context) {
  BM_CHECK(problem.wtp != nullptr);
  const WtpMatrix& wtp = *problem.wtp;
  WallTimer timer;
  const int k = problem.EffectiveMaxSize();
  PricingWorkspace& ws = context.workspace();
  // Sparse offers: dense columns would add num_items × num_users doubles
  // (twice that for mixed) to every concurrently running greedy cell.
  OfferGraph graph(problem, /*dense_columns=*/false, &ws);

  // The total is a running sum of merge gains, in merge order.
  double total = graph.TotalRevenue();
  std::vector<IterationStat> trace;
  trace.push_back(
      IterationStat{0, total, timer.Seconds(), graph.AliveCount()});

  // Prices the candidate pairs across the context's workers and pushes the
  // gaining ones, gathered in candidate order. An oversize pair counts as
  // evaluated. A candidate reads only offers that stay alive and unchanged
  // while it waits in the heap, so pricing it again yields the same outcome
  // bit for bit.
  std::priority_queue<HeapEntry> heap;
  std::vector<std::pair<int, int>> pairs;
  auto push_gaining = [&] {
    EvaluateInBlocks<PairOutcome>(
        context, pairs.size(),
        [&](std::size_t i, PricingWorkspace* w, PairOutcome* out) {
          return graph.EvaluatePair(pairs[i].first, pairs[i].second, out, w);
        },
        [&](std::size_t, const PairOutcome& out) {
          heap.push(HeapEntry{out.gain, out.a, out.b});
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
    if (!graph.offer(top.a).alive || !graph.offer(top.b).alive) {
      continue;  // Lazy deletion: a participant was absorbed meanwhile.
    }
    // The heap keeps only the key; price the pair again for its outcome.
    // This repeats an evaluation, so it does not count in pairs_evaluated.
    PairOutcome best;
    const bool gains = graph.EvaluatePair(top.a, top.b, &best, &ws);
    BM_CHECK(gains && best.gain == top.gain);

    ++iteration;
    context.stats().rounds = iteration;
    ++context.stats().merges;
    const int new_id = graph.Merge(best);
    total += top.gain;

    // Evaluate the new bundle against all surviving offers.
    const Offer& nb = graph.offer(new_id);
    pairs.clear();
    for (int other = 0; other < new_id; ++other) {
      const Offer& o = graph.offer(other);
      if (!o.alive) continue;
      if (problem.prune_co_interest && !nb.support.Intersects(o.support)) {
        continue;
      }
      pairs.emplace_back(other, new_id);
    }
    push_gaining();

    trace.push_back(
        IterationStat{iteration, total, timer.Seconds(), graph.AliveCount()});
  }

  BundleSolution solution = graph.BuildSolution(total);
  solution.trace = std::move(trace);
  return solution;
}

}  // namespace bundlemine
