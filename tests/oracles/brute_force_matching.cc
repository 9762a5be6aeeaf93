#include "oracles/brute_force_matching.h"

#include <algorithm>

#include "util/check.h"

namespace bundlemine {

MatchingResult BruteForceMaxWeightMatching(int num_vertices,
                                           const std::vector<WeightedEdge>& edges) {
  BM_CHECK_LE(num_vertices, 24);
  BM_CHECK_GE(num_vertices, 0);
  const int n = num_vertices;
  const std::size_t full = static_cast<std::size_t>(1) << n;

  // Dense weight lookup (keep max over parallel edges; ignore non-positive).
  std::vector<double> w(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0);
  for (const WeightedEdge& e : edges) {
    BM_CHECK(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n);
    if (e.u == e.v || e.w <= 0.0) continue;
    std::size_t a = static_cast<std::size_t>(e.u) * n + e.v;
    std::size_t b = static_cast<std::size_t>(e.v) * n + e.u;
    w[a] = std::max(w[a], e.w);
    w[b] = std::max(w[b], e.w);
  }

  // dp[mask] = best matching weight using only vertices in mask.
  // choice[mask] encodes the partner of the lowest vertex (or itself if
  // skipped) to reconstruct mates.
  std::vector<double> dp(full, 0.0);
  std::vector<int> choice(full, -1);
  for (std::size_t mask = 1; mask < full; ++mask) {
    int v = 0;
    while (((mask >> v) & 1u) == 0u) ++v;
    // Option 1: leave v unmatched.
    std::size_t rest = mask & ~(static_cast<std::size_t>(1) << v);
    dp[mask] = dp[rest];
    choice[mask] = v;
    // Option 2: match v with some other vertex in the mask.
    for (int u = v + 1; u < n; ++u) {
      if (((mask >> u) & 1u) == 0u) continue;
      double wp = w[static_cast<std::size_t>(v) * n + u];
      if (wp <= 0.0) continue;
      std::size_t sub = rest & ~(static_cast<std::size_t>(1) << u);
      if (dp[sub] + wp > dp[mask]) {
        dp[mask] = dp[sub] + wp;
        choice[mask] = u;
      }
    }
  }

  MatchingResult result;
  result.mate.assign(static_cast<std::size_t>(n), -1);
  result.total_weight = dp[full - 1];
  std::size_t mask = full - 1;
  while (mask != 0) {
    int v = 0;
    while (((mask >> v) & 1u) == 0u) ++v;
    int u = choice[mask];
    mask &= ~(static_cast<std::size_t>(1) << v);
    if (u != v) {
      result.mate[static_cast<std::size_t>(v)] = u;
      result.mate[static_cast<std::size_t>(u)] = v;
      mask &= ~(static_cast<std::size_t>(1) << u);
    }
  }
  return result;
}

}  // namespace bundlemine
