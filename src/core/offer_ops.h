// Internal helpers shared by the bundling algorithms: fast candidate-pair
// pricing without materializing merged sparse vectors, and the
// block-parallel candidate evaluator.

#ifndef BUNDLEMINE_CORE_OFFER_OPS_H_
#define BUNDLEMINE_CORE_OFFER_OPS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/solve_context.h"
#include "data/wtp_matrix.h"
#include "pricing/offer_pricer.h"
#include "pricing/pricing_workspace.h"

namespace bundlemine {

/// Prices the union of two offers' audiences at the given effective scale.
/// The merged scaled WTP values are staged in `ws->values` and priced through
/// the workspace kernels — zero heap allocation once the workspace is warm.
inline PricedOffer PriceMergedPair(const SparseWtpVector& a,
                                   const SparseWtpVector& b, double scale,
                                   const OfferPricer& pricer,
                                   PricingWorkspace* ws) {
  std::vector<double>& merged = ws->values;
  merged.clear();
  const auto& ea = a.entries();
  const auto& eb = b.entries();
  std::size_t i = 0, j = 0;
  while (i < ea.size() && j < eb.size()) {
    double w;
    if (ea[i].id < eb[j].id) {
      w = ea[i++].w;
    } else if (ea[i].id > eb[j].id) {
      w = eb[j++].w;
    } else {
      w = ea[i++].w + eb[j++].w;
    }
    if (w > 0.0) merged.push_back(scale * w);
  }
  while (i < ea.size()) {
    if (ea[i].w > 0.0) merged.push_back(scale * ea[i].w);
    ++i;
  }
  while (j < eb.size()) {
    if (eb[j].w > 0.0) merged.push_back(scale * eb[j].w);
    ++j;
  }
  return pricer.PriceEffectiveValues(merged, ws);
}

/// Candidates per block of EvaluateInBlocks (and of the matching bundler's
/// own block evaluator): bounds the staged results, not the work.
inline constexpr std::size_t kCandidateBlock = 8192;

/// Evaluates candidates 0 … n−1 in fixed blocks across the context's
/// workers. eval(index, ws, &result) prices one candidate in the worker's
/// workspace and returns whether it is kept; keep(index, result) then runs
/// on the calling thread for each kept candidate in index order, so what
/// the caller gathers matches a serial run at any width. Every evaluated
/// candidate counts in stats().pairs_evaluated. Stops before a block once
/// the context's deadline has passed.
template <typename Result, typename Eval, typename Keep>
void EvaluateInBlocks(SolveContext& context, std::size_t n, const Eval& eval,
                      const Keep& keep) {
  std::vector<Result> results(std::min(n, kCandidateBlock));
  std::vector<char> kept(results.size());
  for (std::size_t begin = 0; begin < n; begin += kCandidateBlock) {
    if (context.DeadlineExceeded()) {
      context.stats().deadline_hit = true;
      return;
    }
    const std::size_t size = std::min(kCandidateBlock, n - begin);
    context.ParallelFor(size, [&](std::size_t i, int slot) {
      kept[i] = eval(begin + i, &context.workspace(slot), &results[i]) ? 1 : 0;
    });
    context.stats().pairs_evaluated += static_cast<std::int64_t>(size);
    for (std::size_t i = 0; i < size; ++i) {
      if (kept[i]) keep(begin + i, results[i]);
    }
  }
}

}  // namespace bundlemine

#endif  // BUNDLEMINE_CORE_OFFER_OPS_H_
