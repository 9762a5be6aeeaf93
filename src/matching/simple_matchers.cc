#include "matching/simple_matchers.h"

#include <algorithm>

#include "util/check.h"

namespace bundlemine {

MatchingResult GreedyMaxWeightMatching(int num_vertices,
                                       const std::vector<WeightedEdge>& edges) {
  std::vector<WeightedEdge> sorted = edges;
  std::sort(sorted.begin(), sorted.end(), [](const WeightedEdge& a, const WeightedEdge& b) {
    if (a.w != b.w) return a.w > b.w;
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  });
  MatchingResult result;
  result.mate.assign(static_cast<std::size_t>(num_vertices), -1);
  for (const WeightedEdge& e : sorted) {
    BM_CHECK(e.u >= 0 && e.u < num_vertices && e.v >= 0 && e.v < num_vertices);
    if (e.u == e.v || e.w <= 0.0) continue;
    if (result.mate[static_cast<std::size_t>(e.u)] == -1 &&
        result.mate[static_cast<std::size_t>(e.v)] == -1) {
      result.mate[static_cast<std::size_t>(e.u)] = e.v;
      result.mate[static_cast<std::size_t>(e.v)] = e.u;
      result.total_weight += e.w;
    }
  }
  return result;
}

}  // namespace bundlemine
