// Maximum-weight matching in general graphs (Edmonds' blossom algorithm).
//
// This is the library's substitute for LEMON's matching module (README,
// "Architecture", core + matching): the paper reduces optimal 2-sized bundle
// configuration to maximum-weight matching and re-runs a matching per
// iteration of Algorithm 1.
//
// Implementation: the edge-list primal-dual blossom algorithm (Galil 1986,
// after Van Rantwijk's mwmatching). Each stage grows alternating trees over
// a CSR adjacency until one augmentation; the edges are scanned about once
// per stage and each dual update costs O(V), so memory is O(V + E). Weights
// are integers with the standard "×2" scaling so that all dual variables stay
// integral (no floating-point drift in the optimality conditions). Vertices
// left unmatched are allowed — the
// algorithm maximizes total weight, not cardinality — which is exactly the
// bundling semantics: an unmatched item keeps its self-revenue outside the
// matcher.
//
// Sparse core and certificate: Solve() matches on the union of each vertex's
// 8 heaviest edges (ties to the lower canonical edge id), then prices every
// other edge under the final LP duals in exact integer units. No negative
// slack proves the matching optimal on the whole graph. Violating edges join
// the core, and the search restarts warm from its matching, duals and
// blossoms (the restart of Galil 1986 and of LEMON's MaxWeightedMatching):
// each new edge is made tight by raising one endpoint's dual, which unmatches
// that endpoint and dissolves the blossoms holding it, and the search then
// runs until no exposed vertex keeps a positive dual. A core over 1/8 of the
// edges is all of them, solved cold. The core's own optimality conditions
// are checked after every pass, warm ones included.
//
// Double-valued revenues are converted through a fixed-point scale (see
// `MaxWeightMatcher::kDefaultScale`); exactness against a brute-force oracle
// and against the former dense matcher (tests/oracles/) is covered by
// randomized property tests.

#ifndef BUNDLEMINE_MATCHING_MAX_WEIGHT_MATCHING_H_
#define BUNDLEMINE_MATCHING_MAX_WEIGHT_MATCHING_H_

#include <cstdint>
#include <vector>

namespace bundlemine {

/// Result of a matching computation over 0-indexed vertices.
struct MatchingResult {
  /// mate[v] = partner vertex, or -1 when v is unmatched.
  std::vector<int> mate;
  /// Total weight of the matching (in the caller's weight units).
  double total_weight = 0.0;
  /// Total weight in scaled integer units (exact).
  std::int64_t total_weight_scaled = 0;
};

/// Exact maximum-weight matcher. Usage: construct with the vertex count, add
/// weighted edges (non-positive weights are ignored — they can never be part
/// of a maximum-weight matching), then Solve().
///
/// The result depends only on the edge set: Solve() sorts the edges and merges
/// parallel ones, so the order of AddEdge calls never changes the mate.
class MaxWeightMatcher {
 public:
  /// Fixed-point factor for double → integer weight conversion: revenues are
  /// dollar-valued, so 2^20 ≈ 1e6 keeps sub-cent resolution with headroom.
  static constexpr double kDefaultScale = 1048576.0;

  explicit MaxWeightMatcher(int num_vertices, double scale = kDefaultScale);

  /// Adds an undirected edge; parallel edges keep the maximum weight.
  /// Self-loops and non-positive weights are ignored.
  void AddEdge(int u, int v, double weight);

  /// Adds an edge with an exact integer weight (already in scaled units).
  /// Weights must stay below 2^59 so dual arithmetic cannot overflow; that
  /// holds through the warm restarts of Solve(), whose raised duals stay
  /// within twice the largest weight plus 1.
  void AddEdgeScaled(int u, int v, std::int64_t weight);

  /// Computes a maximum-weight matching. May be called once per instance.
  MatchingResult Solve();

  int num_vertices() const { return n_; }

 private:
  struct Edge {
    int u = 0, v = 0;  // u < v.
    std::int64_t w = 0;
  };

  int n_ = 0;
  double scale_ = kDefaultScale;
  bool solved_ = false;
  std::vector<Edge> edges_;  // As added; Solve() sorts and merges them.
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_MATCHING_MAX_WEIGHT_MATCHING_H_
