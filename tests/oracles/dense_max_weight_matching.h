// Test-only oracle: the dense O(V³) Edmonds blossom matcher that
// `MaxWeightMatcher` used before its edge-list rewrite, kept unchanged so
// randomized tests can compare the optimum weight of the two on graphs far
// beyond the reach of the bitmask brute force.
//
// Implementation: the classic primal-dual blossom algorithm over a dense
// (2n+1)² adjacency matrix, with integer weights and the standard "×2"
// scaling so that all dual variables stay integral. Weights go through the
// same fixed-point scale as `MaxWeightMatcher::kDefaultScale`.

#ifndef BUNDLEMINE_TESTS_ORACLES_DENSE_MAX_WEIGHT_MATCHING_H_
#define BUNDLEMINE_TESTS_ORACLES_DENSE_MAX_WEIGHT_MATCHING_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "matching/max_weight_matching.h"

namespace bundlemine {

/// Exact maximum-weight matcher. Usage: construct with the vertex count, add
/// weighted edges (non-positive weights are ignored — they can never be part
/// of a maximum-weight matching), then Solve().
///
/// Memory is Θ(V²).
class DenseMaxWeightMatcher {
 public:
  /// Fixed-point factor for double → integer weight conversion: revenues are
  /// dollar-valued, so 2^20 ≈ 1e6 keeps sub-cent resolution with headroom.
  static constexpr double kDefaultScale = 1048576.0;

  explicit DenseMaxWeightMatcher(int num_vertices, double scale = kDefaultScale);

  /// Adds an undirected edge; parallel edges keep the maximum weight.
  /// Self-loops and non-positive weights are ignored.
  void AddEdge(int u, int v, double weight);

  /// Adds an edge with an exact integer weight (already in scaled units).
  void AddEdgeScaled(int u, int v, std::int64_t weight);

  /// Computes a maximum-weight matching. May be called once per instance.
  MatchingResult Solve();

  int num_vertices() const { return n_; }

 private:
  struct EdgeSlot {
    int u = 0, v = 0;
    std::int64_t w = 0;
  };

  // Internal blossom machinery (1-indexed; index 0 is the null sentinel).
  std::int64_t EDelta(const EdgeSlot& e) const;
  void UpdateSlack(int u, int x);
  void SetSlack(int x);
  void QPush(int x);
  void SetSt(int x, int b);
  int GetPr(int b, int xr);
  void SetMatch(int u, int v);
  void Augment(int u, int v);
  int GetLca(int u, int v);
  void AddBlossom(int u, int lca, int v);
  void ExpandBlossom(int b);
  bool OnFoundEdge(const EdgeSlot& e);
  bool MatchingPhase();

  EdgeSlot& EdgeAt(int u, int v) { return g_[static_cast<std::size_t>(u) * stride_ + v]; }
  const EdgeSlot& EdgeAt(int u, int v) const {
    return g_[static_cast<std::size_t>(u) * stride_ + v];
  }

  int n_ = 0;        // Real vertices.
  int n_x_ = 0;      // Real vertices + active blossoms.
  std::size_t stride_ = 0;
  double scale_ = kDefaultScale;
  bool solved_ = false;

  std::vector<EdgeSlot> g_;            // Dense (2n+1)² adjacency.
  std::vector<std::int64_t> lab_;      // Dual variables.
  std::vector<int> match_;             // Matched real endpoint (0 = none).
  std::vector<int> slack_;             // Best slack vertex per node.
  std::vector<int> st_;                // Surface blossom of each node.
  std::vector<int> pa_;                // Tree parent (real endpoint).
  std::vector<int> s_label_;           // -1 free, 0 outer, 1 inner.
  std::vector<int> vis_;               // LCA timestamps.
  std::vector<std::vector<int>> flower_;       // Blossom cycles.
  std::vector<std::vector<int>> flower_from_;  // blossom × real vertex → sub-blossom.
  std::deque<int> queue_;
  int lca_clock_ = 0;
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_TESTS_ORACLES_DENSE_MAX_WEIGHT_MATCHING_H_
