#include "matching/max_weight_matching.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <tuple>
#include <utility>

#include "util/check.h"

namespace bundlemine {

namespace {

// Scaled weights stay below 2^59, so 2w stays below 2^60, and no dual exceeds
// the largest 2w plus 1: a matched vertex's dual is capped by its tight edge,
// and a warm restart raises a dual only until one edge is tight (plus 1 for
// parity) or moves a dissolved blossom's dual onto leaves of tight edges. So
// a slack dual[i] + dual[j] + 2·Σz - 2w never leaves int64.
constexpr std::int64_t kMaxScaledWeight = std::int64_t{1} << 59;

// Sparse-core shape (see the header): each vertex's kCoreDegree heaviest
// edges, unless that is more than 1/kCoreShare of all edges.
constexpr int kCoreDegree = 8;
constexpr std::size_t kCoreShare = 8;

// Top-level blossom labels. A vertex inside a blossom carries its own label
// only where Van Rantwijk's algorithm tracks it (the T-vertex entry point).
constexpr int kFree = 0;
constexpr int kOuter = 1;    // S-blossom: an even distance from a tree root.
constexpr int kInner = 2;    // T-blossom.
constexpr int kVisited = 4;  // ScanBlossom's temporary mark, or-ed onto kOuter.

// The primal-dual search over a deduplicated edge list. Vertices are 0..n-1,
// blossoms n..2n-1. Edge k has endpoints 2k and 2k+1; "endpoint p" names the
// vertex endpoint_[p], and p ^ 1 is the other end of the same edge. The
// member names follow mwmatching.py so the two can be read side by side.
class BlossomSearch {
 public:
  BlossomSearch(int n, std::vector<int> endpoint, std::vector<std::int64_t> w2)
      : n_(n),
        endpoint_(std::move(endpoint)),
        w2_(std::move(w2)),
        mate_(Idx(n), -1),
        label_(2 * Idx(n), kFree),
        labelend_(2 * Idx(n), -1),
        inblossom_(Idx(n)),
        blossomparent_(2 * Idx(n), -1),
        blossomchilds_(2 * Idx(n)),
        blossomendps_(2 * Idx(n)),
        blossombase_(2 * Idx(n), -1),
        bestedge_(2 * Idx(n), -1),
        bestslack_(2 * Idx(n), 0),
        blossombestedges_(2 * Idx(n)),
        dual_(2 * Idx(n), 0),
        allowedge_(w2_.size(), 0),
        bestedgeto_(2 * Idx(n), -1),
        bestslackto_(2 * Idx(n), 0) {
    BuildArcs();
    const std::int64_t max_w2 = w2_.empty() ? 0 : *std::max_element(w2_.begin(), w2_.end());
    for (int v = 0; v < n; ++v) {
      inblossom_[Idx(v)] = v;
      blossombase_[Idx(v)] = v;
      dual_[Idx(v)] = max_w2 / 2;
    }
    for (int b = 2 * n - 1; b >= n; --b) unusedblossoms_.push_back(b);
  }

  // Warm restart: appends edges (existing edge ids stay) and repairs the
  // duals so that the next Run() resumes from this matching. Each new edge
  // with negative slack gets one endpoint's dual raised until it is tight,
  // an exposed endpoint first. A raised vertex leaves every blossom first
  // (DissolveAround) and loses its mate, whose edge is no longer tight.
  // Finally every exposed vertex with a positive dual, the roots of the next
  // search, is raised to an even dual: trees of one parity keep the halved
  // outer-outer slacks of Stage() integral.
  void AddEdges(const std::vector<int>& endpoint, const std::vector<std::int64_t>& w2) {
    const int first = static_cast<int>(w2_.size());
    endpoint_.insert(endpoint_.end(), endpoint.begin(), endpoint.end());
    w2_.insert(w2_.end(), w2.begin(), w2.end());
    allowedge_.resize(w2_.size());
    BuildArcs();
    for (int k = first; k < static_cast<int>(w2_.size()); ++k) {
      int i = endpoint_[2 * Idx(k)];
      int j = endpoint_[2 * Idx(k) + 1];
      if (FinalSlack(i, j, w2_[Idx(k)]) >= 0) continue;
      if (mate_[Idx(i)] != -1 && mate_[Idx(j)] == -1) std::swap(i, j);
      DissolveAround(i);
      const std::int64_t slack = FinalSlack(i, j, w2_[Idx(k)]);
      if (slack < 0) Raise(i, -slack);
    }
    for (int v = 0; v < n_; ++v) {
      if (mate_[Idx(v)] == -1 && dual_[Idx(v)] % 2 != 0) {
        DissolveAround(v);
        Raise(v, dual_[Idx(v)] % 2);
      }
    }
  }

  // Runs stages until no exposed vertex has a positive dual, checks the
  // optimality conditions on this search's edges, and returns the matching.
  // Each stage roots a tree at every such vertex and ends with one change
  // that leaves fewer of them, so at most n + 1 stages run.
  MatchingResult Run() {
    for (int stage = 0; stage <= n_; ++stage) {
      std::fill(label_.begin(), label_.end(), kFree);
      std::fill(bestedge_.begin(), bestedge_.end(), -1);
      for (std::size_t b = static_cast<std::size_t>(n_); b < blossombestedges_.size(); ++b) {
        blossombestedges_[b].reset();
      }
      std::fill(allowedge_.begin(), allowedge_.end(), 0);
      queue_.clear();
      for (int v = 0; v < n_; ++v) {
        if (mate_[Idx(v)] == -1 && dual_[Idx(v)] > 0 &&
            label_[Idx(inblossom_[Idx(v)])] == kFree) {
          AssignLabel(v, kOuter, -1);
        }
      }
      if (queue_.empty()) break;
      Stage();
      // Blossoms whose dual reached zero may go: expanding them now keeps
      // the blossom count bounded without changing the optimum.
      for (int b = n_; b < 2 * n_; ++b) {
        if (blossomparent_[Idx(b)] == -1 && blossombase_[Idx(b)] >= 0 &&
            label_[Idx(b)] == kOuter && dual_[Idx(b)] == 0) {
          ExpandBlossom(b, /*endstage=*/true);
        }
      }
    }

    // The LP certificate of mwmatching.verifyOptimum; a failure is a bug in
    // the search. Duals are non-negative, exposed vertices have dual 0,
    // every edge is feasible and every matched one tight, and each blossom
    // with a positive dual is full.
    BM_CHECK(std::none_of(dual_.begin(), dual_.end(), [](std::int64_t d) { return d < 0; }));
    MatchingResult result;
    result.mate.assign(Idx(n_), -1);
    for (int v = 0; v < n_; ++v) {
      const int p = mate_[Idx(v)];
      BM_CHECK(p != -1 || dual_[Idx(v)] == 0);
      if (p != -1) result.mate[Idx(v)] = endpoint_[Idx(p)];
    }
    for (int k = 0; k < static_cast<int>(w2_.size()); ++k) {
      const int i = endpoint_[2 * Idx(k)];
      const std::int64_t slack = FinalSlack(i, endpoint_[2 * Idx(k) + 1], w2_[Idx(k)]);
      BM_CHECK_GE(slack, 0);
      if (mate_[Idx(i)] == 2 * k + 1) {
        BM_CHECK_EQ(slack, 0);
        result.total_weight_scaled += w2_[Idx(k)] / 2;
      }
    }
    for (int b = n_; b < 2 * n_; ++b) {
      if (blossombase_[Idx(b)] < 0 || dual_[Idx(b)] == 0) continue;
      const std::vector<int>& endps = blossomendps_[Idx(b)];
      for (std::size_t c = 1; c < endps.size(); c += 2) {
        BM_CHECK_EQ(mate_[Idx(endpoint_[Idx(endps[c])])], endps[c] ^ 1);
      }
    }
    return result;
  }

  // Reduced cost of an edge (i, j) of doubled weight w2, which need not be
  // one of this search's edges, under the duals Run() left: 2·(u_i + u_j +
  // Σ z_B over the blossoms B holding both ends − w). Negative means the
  // edge violates the dual, so the matching may not be optimal with it.
  std::int64_t FinalSlack(int i, int j, std::int64_t w2) const {
    std::int64_t slack = dual_[Idx(i)] + dual_[Idx(j)] - w2;
    if (inblossom_[Idx(i)] != inblossom_[Idx(j)]) return slack;
    // Two climbs that swap chains at the top meet at the smallest blossom
    // holding both ends; it and its ancestors count.
    int a = i;
    for (int b = j; a != b;) {
      a = blossomparent_[Idx(a)] == -1 ? j : blossomparent_[Idx(a)];
      b = blossomparent_[Idx(b)] == -1 ? i : blossomparent_[Idx(b)];
    }
    for (; a != -1; a = blossomparent_[Idx(a)]) slack += 2 * dual_[Idx(a)];
    return slack;
  }

 private:
  struct Arc {
    int to;           // Neighbouring vertex.
    int p;            // `to`'s endpoint of the edge; p >> 1 is the edge id.
    std::int64_t w2;  // Twice the edge weight.
  };

  static std::size_t Idx(int i) { return static_cast<std::size_t>(i); }

  // CSR adjacency: vertex v's arcs carry (neighbour, neighbour's endpoint,
  // 2w) inline, in edge-id order, so the scan reads one contiguous run.
  void BuildArcs() {
    arc_begin_.assign(Idx(n_) + 1, 0);
    for (int p : endpoint_) ++arc_begin_[Idx(p) + 1];
    for (std::size_t v = 0; v < Idx(n_); ++v) arc_begin_[v + 1] += arc_begin_[v];
    arcs_.resize(endpoint_.size());
    std::vector<int> fill(arc_begin_.begin(), arc_begin_.end() - 1);
    for (int p = 0; p < static_cast<int>(endpoint_.size()); p += 2) {
      const int i = endpoint_[Idx(p)];
      const int j = endpoint_[Idx(p) + 1];
      const std::int64_t w2k = w2_[Idx(p >> 1)];
      arcs_[Idx(fill[Idx(i)]++)] = Arc{j, p + 1, w2k};
      arcs_[Idx(fill[Idx(j)]++)] = Arc{i, p, w2k};
    }
  }

  // Expands every blossom holding vertex v, outermost first, moving each
  // blossom's dual onto its leaves: an edge inside keeps its slack, and the
  // one matched edge leaving it, at its base, loses tightness and is
  // unmatched.
  void DissolveAround(int v) {
    while (inblossom_[Idx(v)] != v) {
      const int b = inblossom_[Idx(v)];
      const int base = blossombase_[Idx(b)];
      const std::int64_t z = dual_[Idx(b)];
      ForEachLeaf(b, [this, z](int leaf) { dual_[Idx(leaf)] += z; });
      dual_[Idx(b)] = 0;
      ExpandBlossom(b, /*endstage=*/true);
      if (z > 0) Unmatch(base);
    }
  }

  // Raises top-level vertex v's dual by d, which leaves v exposed.
  void Raise(int v, std::int64_t d) {
    dual_[Idx(v)] += d;
    Unmatch(v);
  }

  void Unmatch(int v) {
    if (mate_[Idx(v)] == -1) return;
    mate_[Idx(endpoint_[Idx(mate_[Idx(v)])])] = -1;
    mate_[Idx(v)] = -1;
  }

  std::int64_t Slack(int k) const {
    return dual_[Idx(endpoint_[2 * Idx(k)])] + dual_[Idx(endpoint_[2 * Idx(k) + 1])] -
           w2_[Idx(k)];
  }

  void SetBestEdge(int x, int k, std::int64_t slack) {
    bestedge_[Idx(x)] = k;
    bestslack_[Idx(x)] = slack;
  }

  // Calls f(v) for every vertex inside (sub-)blossom b, in child order.
  template <typename F>
  void ForEachLeaf(int b, F&& f) const {
    if (b < n_) {
      f(b);
      return;
    }
    for (int t : blossomchilds_[Idx(b)]) ForEachLeaf(t, f);
  }

  // Positions along a blossom's child cycle wrap like Python's negative
  // indices.
  static std::size_t Wrap(int j, std::size_t size) {
    return j < 0 ? static_cast<std::size_t>(j + static_cast<int>(size)) : static_cast<std::size_t>(j);
  }

  // Labels the top-level blossom containing w with t, reached through
  // endpoint p; an inner label pulls the mate's blossom in as outer.
  void AssignLabel(int w, int t, int p) {
    while (true) {
      int b = inblossom_[Idx(w)];
      label_[Idx(w)] = label_[Idx(b)] = t;
      labelend_[Idx(w)] = labelend_[Idx(b)] = p;
      bestedge_[Idx(w)] = bestedge_[Idx(b)] = -1;
      if (t == kOuter) {
        ForEachLeaf(b, [this](int v) { queue_.push_back(v); });
        return;
      }
      int base_mate = mate_[Idx(blossombase_[Idx(b)])];
      w = endpoint_[Idx(base_mate)];
      t = kOuter;
      p = base_mate ^ 1;
    }
  }

  // Traces back from v and w towards their roots; returns the base of the
  // new blossom, or -1 when the roots differ (an augmenting path).
  int ScanBlossom(int v, int w) {
    path_.clear();
    int base = -1;
    while (v != -1 || w != -1) {
      int b = inblossom_[Idx(v)];
      if (label_[Idx(b)] & kVisited) {
        base = blossombase_[Idx(b)];
        break;
      }
      path_.push_back(b);
      label_[Idx(b)] = kOuter | kVisited;
      if (labelend_[Idx(b)] == -1) {
        v = -1;
      } else {
        v = endpoint_[Idx(labelend_[Idx(b)])];
        b = inblossom_[Idx(v)];
        v = endpoint_[Idx(labelend_[Idx(b)])];
      }
      if (w != -1) std::swap(v, w);
    }
    for (int b : path_) label_[Idx(b)] = kOuter;
    return base;
  }

  // Shrinks the odd cycle closed by edge k, with the given base, into a new
  // outer blossom, and gathers its least-slack edges to other outer
  // blossoms.
  void AddBlossom(int base, int k) {
    int v = endpoint_[2 * Idx(k)];
    int w = endpoint_[2 * Idx(k) + 1];
    int bb = inblossom_[Idx(base)];
    int bv = inblossom_[Idx(v)];
    int bw = inblossom_[Idx(w)];
    BM_CHECK(!unusedblossoms_.empty());
    int b = unusedblossoms_.back();
    unusedblossoms_.pop_back();
    blossombase_[Idx(b)] = base;
    blossomparent_[Idx(b)] = -1;
    blossomparent_[Idx(bb)] = b;
    std::vector<int>& path = blossomchilds_[Idx(b)];
    std::vector<int>& endps = blossomendps_[Idx(b)];
    path.clear();
    endps.clear();
    while (bv != bb) {
      blossomparent_[Idx(bv)] = b;
      path.push_back(bv);
      endps.push_back(labelend_[Idx(bv)]);
      v = endpoint_[Idx(labelend_[Idx(bv)])];
      bv = inblossom_[Idx(v)];
    }
    path.push_back(bb);
    std::reverse(path.begin(), path.end());
    std::reverse(endps.begin(), endps.end());
    endps.push_back(2 * k);
    while (bw != bb) {
      blossomparent_[Idx(bw)] = b;
      path.push_back(bw);
      endps.push_back(labelend_[Idx(bw)] ^ 1);
      w = endpoint_[Idx(labelend_[Idx(bw)])];
      bw = inblossom_[Idx(w)];
    }
    label_[Idx(b)] = kOuter;
    labelend_[Idx(b)] = labelend_[Idx(bb)];
    dual_[Idx(b)] = 0;
    ForEachLeaf(b, [this, b](int leaf) {
      if (label_[Idx(inblossom_[Idx(leaf)])] == kInner) queue_.push_back(leaf);
      inblossom_[Idx(leaf)] = b;
    });

    // bestedgeto_[x]: least-slack edge from the new blossom to outer
    // blossom x. Sub-blossoms that kept such a list contribute it; the rest
    // contribute every arc of their leaves.
    auto consider = [this, b](int j, int edge, std::int64_t slack) {
      int bj = inblossom_[Idx(j)];
      if (bj != b && label_[Idx(bj)] == kOuter &&
          (bestedgeto_[Idx(bj)] == -1 || slack < bestslackto_[Idx(bj)])) {
        bestedgeto_[Idx(bj)] = edge;
        bestslackto_[Idx(bj)] = slack;
      }
    };
    for (int sub : path) {
      if (blossombestedges_[Idx(sub)].has_value()) {
        for (int edge : *blossombestedges_[Idx(sub)]) {
          int i = endpoint_[2 * Idx(edge)];
          int j = endpoint_[2 * Idx(edge) + 1];
          if (inblossom_[Idx(j)] == b) std::swap(i, j);
          consider(j, edge, Slack(edge));
        }
      } else {
        ForEachLeaf(sub, [&](int leaf) {
          for (int a = arc_begin_[Idx(leaf)]; a < arc_begin_[Idx(leaf) + 1]; ++a) {
            const Arc& arc = arcs_[Idx(a)];
            consider(arc.to, arc.p >> 1, dual_[Idx(leaf)] + dual_[Idx(arc.to)] - arc.w2);
          }
        });
      }
      blossombestedges_[Idx(sub)].reset();
      bestedge_[Idx(sub)] = -1;
    }
    std::vector<int>& best = blossombestedges_[Idx(b)].emplace();
    bestedge_[Idx(b)] = -1;
    for (std::size_t x = 0; x < bestedgeto_.size(); ++x) {
      int edge = bestedgeto_[x];
      if (edge == -1) continue;
      best.push_back(edge);
      if (bestedge_[Idx(b)] == -1 || bestslackto_[x] < bestslack_[Idx(b)]) {
        SetBestEdge(b, edge, bestslackto_[x]);
      }
      bestedgeto_[x] = -1;
    }
  }

  // Dissolves blossom b: at the end of a stage (dual 0, outer), or mid-stage
  // when an inner blossom's dual reaches zero, relabelling its children.
  void ExpandBlossom(int b, bool endstage) {
    for (int s : blossomchilds_[Idx(b)]) {
      blossomparent_[Idx(s)] = -1;
      if (s < n_) {
        inblossom_[Idx(s)] = s;
      } else if (endstage && dual_[Idx(s)] == 0) {
        ExpandBlossom(s, endstage);
      } else {
        ForEachLeaf(s, [this, s](int v) { inblossom_[Idx(v)] = s; });
      }
    }
    if (!endstage && label_[Idx(b)] == kInner) {
      const std::vector<int>& childs = blossomchilds_[Idx(b)];
      const std::vector<int>& endps = blossomendps_[Idx(b)];
      const std::size_t size = childs.size();
      int entrychild = inblossom_[Idx(endpoint_[Idx(labelend_[Idx(b)] ^ 1)])];
      int j = static_cast<int>(std::find(childs.begin(), childs.end(), entrychild) - childs.begin());
      int jstep;
      int endptrick;
      if (j & 1) {
        j -= static_cast<int>(size);
        jstep = 1;
        endptrick = 0;
      } else {
        jstep = -1;
        endptrick = 1;
      }
      // Relabel the even-length path from the entry child to the base.
      int p = labelend_[Idx(b)];
      while (j != 0) {
        label_[Idx(endpoint_[Idx(p ^ 1)])] = kFree;
        label_[Idx(endpoint_[Idx(endps[Wrap(j - endptrick, size)] ^ endptrick ^ 1)])] = kFree;
        AssignLabel(endpoint_[Idx(p ^ 1)], kInner, p);
        allowedge_[Idx(endps[Wrap(j - endptrick, size)] >> 1)] = 1;
        j += jstep;
        p = endps[Wrap(j - endptrick, size)] ^ endptrick;
        allowedge_[Idx(p >> 1)] = 1;
        j += jstep;
      }
      int bv = childs[Wrap(j, size)];
      label_[Idx(endpoint_[Idx(p ^ 1)])] = label_[Idx(bv)] = kInner;
      labelend_[Idx(endpoint_[Idx(p ^ 1)])] = labelend_[Idx(bv)] = p;
      bestedge_[Idx(bv)] = -1;
      j += jstep;
      // The other children go back to free unless a leaf was reached from
      // outside, in which case that child becomes inner.
      while (childs[Wrap(j, size)] != entrychild) {
        bv = childs[Wrap(j, size)];
        if (label_[Idx(bv)] == kOuter) {
          j += jstep;
          continue;
        }
        int labelled = -1;
        ForEachLeaf(bv, [this, &labelled](int v) {
          if (labelled == -1 && label_[Idx(v)] != kFree) labelled = v;
        });
        if (labelled != -1) {
          label_[Idx(labelled)] = kFree;
          label_[Idx(endpoint_[Idx(mate_[Idx(blossombase_[Idx(bv)])])])] = kFree;
          AssignLabel(labelled, kInner, labelend_[Idx(labelled)]);
        }
        j += jstep;
      }
    }
    label_[Idx(b)] = labelend_[Idx(b)] = -1;
    blossomchilds_[Idx(b)].clear();
    blossomendps_[Idx(b)].clear();
    blossombase_[Idx(b)] = -1;
    blossombestedges_[Idx(b)].reset();
    bestedge_[Idx(b)] = -1;
    unusedblossoms_.push_back(b);
  }

  // Swaps matched and unmatched edges along the even path from vertex v to
  // blossom b's base, then rotates b so v becomes its base.
  void AugmentBlossom(int b, int v) {
    int t = v;
    while (blossomparent_[Idx(t)] != b) t = blossomparent_[Idx(t)];
    if (t >= n_) AugmentBlossom(t, v);
    std::vector<int>& childs = blossomchilds_[Idx(b)];
    std::vector<int>& endps = blossomendps_[Idx(b)];
    const std::size_t size = childs.size();
    const int i = static_cast<int>(std::find(childs.begin(), childs.end(), t) - childs.begin());
    int j = i;
    int jstep;
    int endptrick;
    if (i & 1) {
      j -= static_cast<int>(size);
      jstep = 1;
      endptrick = 0;
    } else {
      jstep = -1;
      endptrick = 1;
    }
    while (j != 0) {
      j += jstep;
      t = childs[Wrap(j, size)];
      int p = endps[Wrap(j - endptrick, size)] ^ endptrick;
      if (t >= n_) AugmentBlossom(t, endpoint_[Idx(p)]);
      j += jstep;
      t = childs[Wrap(j, size)];
      if (t >= n_) AugmentBlossom(t, endpoint_[Idx(p ^ 1)]);
      mate_[Idx(endpoint_[Idx(p)])] = p ^ 1;
      mate_[Idx(endpoint_[Idx(p ^ 1)])] = p;
    }
    std::rotate(childs.begin(), childs.begin() + i, childs.end());
    std::rotate(endps.begin(), endps.begin() + i, endps.end());
    blossombase_[Idx(b)] = blossombase_[Idx(childs[0])];
  }

  // Matches vertex s to endpoint p (-1: leaves s exposed) and flips the
  // alternating path from s back to its tree's root.
  void AugmentFrom(int s, int p) {
    while (true) {
      int bs = inblossom_[Idx(s)];
      if (bs >= n_) AugmentBlossom(bs, s);
      mate_[Idx(s)] = p;
      if (labelend_[Idx(bs)] == -1) break;
      int t = endpoint_[Idx(labelend_[Idx(bs)])];
      int bt = inblossom_[Idx(t)];
      s = endpoint_[Idx(labelend_[Idx(bt)])];
      int j = endpoint_[Idx(labelend_[Idx(bt)] ^ 1)];
      if (bt >= n_) AugmentBlossom(bt, j);
      mate_[Idx(j)] = labelend_[Idx(bt)];
      p = labelend_[Idx(bt)] ^ 1;
    }
  }

  // Augments along the path through edge k between two outer trees.
  void AugmentMatching(int k) {
    AugmentFrom(endpoint_[2 * Idx(k)], 2 * k + 1);
    AugmentFrom(endpoint_[2 * Idx(k) + 1], 2 * k);
  }

  // One stage: grows the alternating forest and adjusts duals until an
  // augmentation or until an outer vertex's dual reaches zero.
  void Stage() {
    while (true) {
      while (!queue_.empty()) {
        int v = queue_.back();
        queue_.pop_back();
        const std::int64_t dual_v = dual_[Idx(v)];
        for (int a = arc_begin_[Idx(v)]; a < arc_begin_[Idx(v) + 1]; ++a) {
          const Arc& arc = arcs_[Idx(a)];
          const int w = arc.to;
          const int bv = inblossom_[Idx(v)];
          const int bw = inblossom_[Idx(w)];
          if (bv == bw) continue;
          const int k = arc.p >> 1;
          std::int64_t kslack = 0;
          if (!allowedge_[Idx(k)]) {
            kslack = dual_v + dual_[Idx(w)] - arc.w2;
            if (kslack <= 0) allowedge_[Idx(k)] = 1;
          }
          if (allowedge_[Idx(k)]) {
            if (label_[Idx(bw)] == kFree && mate_[Idx(blossombase_[Idx(bw)])] == -1) {
              // An exposed vertex at dual 0 (only restarts leave one outside
              // the forest) ends an augmenting path from v's root.
              labelend_[Idx(bw)] = -1;
              AugmentMatching(k);
              return;
            } else if (label_[Idx(bw)] == kFree) {
              AssignLabel(w, kInner, arc.p ^ 1);
            } else if (label_[Idx(bw)] == kOuter) {
              int base = ScanBlossom(v, w);
              if (base < 0) {
                AugmentMatching(k);
                return;
              }
              AddBlossom(base, k);
            } else if (label_[Idx(w)] == kFree) {
              label_[Idx(w)] = kInner;
              labelend_[Idx(w)] = arc.p ^ 1;
            }
          } else if (label_[Idx(bw)] == kOuter) {
            if (bestedge_[Idx(bv)] == -1 || kslack < bestslack_[Idx(bv)]) {
              SetBestEdge(bv, k, kslack);
            }
          } else if (label_[Idx(w)] == kFree) {
            if (bestedge_[Idx(w)] == -1 || kslack < bestslack_[Idx(w)]) {
              SetBestEdge(w, k, kslack);
            }
          }
        }
      }

      // No tight edge left: pick the smallest dual change that makes
      // progress. Type 1: an outer vertex's dual reaches zero.
      int deltatype = 1;
      std::int64_t delta = std::numeric_limits<std::int64_t>::max();
      for (int v = 0; v < n_; ++v) {
        if (label_[Idx(inblossom_[Idx(v)])] == kOuter) {
          delta = std::min(delta, dual_[Idx(v)]);
        }
      }
      int deltaedge = -1;
      int deltablossom = -1;
      for (int v = 0; v < n_; ++v) {
        if (label_[Idx(inblossom_[Idx(v)])] == kFree && bestedge_[Idx(v)] != -1 &&
            bestslack_[Idx(v)] < delta) {
          delta = bestslack_[Idx(v)];
          deltatype = 2;
          deltaedge = bestedge_[Idx(v)];
        }
      }
      for (int b = 0; b < 2 * n_; ++b) {
        if (blossomparent_[Idx(b)] == -1 && label_[Idx(b)] == kOuter &&
            bestedge_[Idx(b)] != -1 && bestslack_[Idx(b)] / 2 < delta) {
          delta = bestslack_[Idx(b)] / 2;
          deltatype = 3;
          deltaedge = bestedge_[Idx(b)];
        }
      }
      for (int b = n_; b < 2 * n_; ++b) {
        if (blossombase_[Idx(b)] >= 0 && blossomparent_[Idx(b)] == -1 &&
            label_[Idx(b)] == kInner && dual_[Idx(b)] < delta) {
          delta = dual_[Idx(b)];
          deltatype = 4;
          deltablossom = b;
        }
      }

      for (int v = 0; v < n_; ++v) {
        int lbl = label_[Idx(inblossom_[Idx(v)])];
        if (lbl == kOuter) {
          dual_[Idx(v)] -= delta;
        } else if (lbl == kInner) {
          dual_[Idx(v)] += delta;
        }
      }
      for (int b = n_; b < 2 * n_; ++b) {
        if (blossombase_[Idx(b)] >= 0 && blossomparent_[Idx(b)] == -1) {
          if (label_[Idx(b)] == kOuter) {
            dual_[Idx(b)] += delta;
          } else if (label_[Idx(b)] == kInner) {
            dual_[Idx(b)] -= delta;
          }
        }
      }
      // The duals moved, so refresh every cached best-edge slack once here
      // instead of recomputing Slack(bestedge) at each scan comparison.
      for (std::size_t x = 0; x < bestedge_.size(); ++x) {
        if (bestedge_[x] != -1) bestslack_[x] = Slack(bestedge_[x]);
      }

      if (deltatype == 1) {
        // A root at dual 0 stays exposed and ends the stage; in a cold
        // search every root gets there at once, which ends the search. Any
        // other outer vertex at dual 0 takes its root's place as exposed.
        int zero = -1;
        for (int v = 0; v < n_; ++v) {
          if (dual_[Idx(v)] != 0 || label_[Idx(inblossom_[Idx(v)])] != kOuter) continue;
          if (mate_[Idx(v)] == -1) return;
          if (zero == -1) zero = v;
        }
        AugmentFrom(zero, -1);
        return;
      }
      if (deltatype == 4) {
        ExpandBlossom(deltablossom, /*endstage=*/false);
        continue;
      }
      allowedge_[Idx(deltaedge)] = 1;
      int i = endpoint_[2 * Idx(deltaedge)];
      if (deltatype == 2 && label_[Idx(inblossom_[Idx(i)])] == kFree) {
        i = endpoint_[2 * Idx(deltaedge) + 1];
      }
      queue_.push_back(i);
    }
  }

  const int n_;
  std::vector<int> endpoint_;       // 2E: vertex of each edge endpoint.
  std::vector<std::int64_t> w2_;    // E: twice each edge weight.
  std::vector<int> arc_begin_;      // n+1: CSR offsets into arcs_.
  std::vector<Arc> arcs_;           // 2E.
  std::vector<int> mate_;           // n: remote endpoint of the matched edge.
  std::vector<int> label_;          // 2n: kFree / kOuter / kInner.
  std::vector<int> labelend_;       // 2n: endpoint through which labelled.
  std::vector<int> inblossom_;      // n: top-level blossom of each vertex.
  std::vector<int> blossomparent_;  // 2n.
  std::vector<std::vector<int>> blossomchilds_;  // 2n: odd child cycle.
  std::vector<std::vector<int>> blossomendps_;   // 2n: endpoints along it.
  std::vector<int> blossombase_;    // 2n: base vertex, -1 when unused.
  std::vector<int> bestedge_;       // 2n: least-slack edge (-1: none).
  std::vector<std::int64_t> bestslack_;  // 2n: Slack(bestedge_), current.
  // Outer blossoms' least-slack edges to other outer blossoms; empty
  // optional = not computed, use the leaves' arcs.
  std::vector<std::optional<std::vector<int>>> blossombestedges_;
  std::vector<std::int64_t> dual_;  // 2n: 2·u(v) for vertices, z(b) for blossoms.
  std::vector<std::uint8_t> allowedge_;  // E: edge known tight this stage.
  std::vector<int> unusedblossoms_;
  std::vector<int> queue_;          // Outer vertices still to scan.
  std::vector<int> path_;           // ScanBlossom scratch.
  std::vector<int> bestedgeto_;     // AddBlossom scratch, all -1 between calls.
  std::vector<std::int64_t> bestslackto_;
};

// The sparse core as a mask over the canonical edge list: the union of every
// vertex's kCoreDegree heaviest edges, ties to the lower edge id.
std::vector<std::uint8_t> HeaviestEdges(int n, const std::vector<int>& endpoint,
                                        const std::vector<std::int64_t>& w2) {
  const std::size_t none = w2.size();
  std::vector<std::size_t> top(static_cast<std::size_t>(n) * kCoreDegree, none);
  for (std::size_t p = 0; p < endpoint.size(); ++p) {
    const std::size_t k = p >> 1;
    std::size_t* rank = &top[static_cast<std::size_t>(endpoint[p]) * kCoreDegree];
    // Edges arrive in id order, so k goes behind every edge as heavy as it.
    int r = kCoreDegree;
    while (r > 0 && (rank[r - 1] == none || w2[rank[r - 1]] < w2[k])) --r;
    if (r == kCoreDegree) continue;
    std::copy_backward(rank + r, rank + kCoreDegree - 1, rank + kCoreDegree);
    rank[r] = k;
  }
  std::vector<std::uint8_t> in_core(none + 1, 0);  // Slot `none` takes empty ranks.
  for (std::size_t k : top) in_core[k] = 1;
  in_core.pop_back();
  return in_core;
}

}  // namespace

MaxWeightMatcher::MaxWeightMatcher(int num_vertices, double scale)
    : n_(num_vertices), scale_(scale) {
  BM_CHECK_GE(num_vertices, 0);
  BM_CHECK_GT(scale, 0.0);
}

void MaxWeightMatcher::AddEdge(int u, int v, double weight) {
  if (weight <= 0.0) return;
  double scaled = weight * scale_;
  BM_CHECK_MSG(scaled < static_cast<double>(kMaxScaledWeight),
               "edge weight too large for fixed-point scale");
  AddEdgeScaled(u, v, static_cast<std::int64_t>(std::llround(scaled)));
}

void MaxWeightMatcher::AddEdgeScaled(int u, int v, std::int64_t weight) {
  BM_CHECK(u >= 0 && u < n_);
  BM_CHECK(v >= 0 && v < n_);
  BM_CHECK_MSG(weight < kMaxScaledWeight, "edge weight too large for fixed-point scale");
  if (u == v || weight <= 0) return;
  edges_.push_back(Edge{std::min(u, v), std::max(u, v), weight});
}

MatchingResult MaxWeightMatcher::Solve() {
  BM_CHECK_MSG(!solved_, "Solve() may only be called once");
  solved_ = true;

  // Canonical edge order, parallel edges merged to their maximum weight:
  // the search below then depends on the edge set alone.
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.u, a.v, b.w) < std::tie(b.u, b.v, a.w);
  });
  std::vector<int> endpoint;
  std::vector<std::int64_t> w2;
  endpoint.reserve(2 * edges_.size());
  w2.reserve(edges_.size());
  for (std::size_t k = 0; k < edges_.size(); ++k) {
    const Edge& e = edges_[k];
    if (k > 0 && e.u == edges_[k - 1].u && e.v == edges_[k - 1].v) continue;
    endpoint.push_back(e.u);
    endpoint.push_back(e.v);
    w2.push_back(2 * e.w);
  }
  std::vector<Edge>().swap(edges_);
  BM_CHECK_LE(endpoint.size(), static_cast<std::size_t>(std::numeric_limits<int>::max()));

  // Solve on the sparse core, then price every edge left out under the
  // final duals. Violated edges join the core and the search restarts warm
  // from its matching and duals; none violated proves the core's matching
  // optimal on the whole graph. A core over 1/kCoreShare of the edges is all
  // of them, solved cold.
  const std::size_t num_edges = w2.size();
  std::vector<std::uint8_t> in_core = HeaviestEdges(n_, endpoint, w2);
  auto core_size = static_cast<std::size_t>(std::count(in_core.begin(), in_core.end(), 1));
  std::vector<int> added_endpoint;  // Core edges the search does not have yet.
  std::vector<std::int64_t> added_w2;
  for (std::size_t k = 0; k < num_edges; ++k) {
    if (!in_core[k]) continue;
    added_endpoint.insert(added_endpoint.end(), {endpoint[2 * k], endpoint[2 * k + 1]});
    added_w2.push_back(w2[k]);
  }
  std::optional<BlossomSearch> search;
  while (true) {
    if (core_size * kCoreShare > num_edges) {
      std::fill(in_core.begin(), in_core.end(), 1);
      search.emplace(n_, endpoint, w2);
    } else if (!search) {
      search.emplace(n_, std::move(added_endpoint), std::move(added_w2));
    } else {
      search->AddEdges(added_endpoint, added_w2);
    }
    MatchingResult result = search->Run();
    added_endpoint.clear();
    added_w2.clear();
    for (std::size_t k = 0; k < num_edges; ++k) {
      if (!in_core[k] && search->FinalSlack(endpoint[2 * k], endpoint[2 * k + 1], w2[k]) < 0) {
        in_core[k] = 1;
        added_endpoint.insert(added_endpoint.end(), {endpoint[2 * k], endpoint[2 * k + 1]});
        added_w2.push_back(w2[k]);
      }
    }
    if (added_w2.empty()) {
      result.total_weight = static_cast<double>(result.total_weight_scaled) / scale_;
      return result;
    }
    core_size += added_w2.size();
  }
}

}  // namespace bundlemine
