#include "oracles/dense_max_weight_matching.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace bundlemine {

namespace {
constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
}  // namespace

DenseMaxWeightMatcher::DenseMaxWeightMatcher(int num_vertices, double scale)
    : n_(num_vertices), scale_(scale) {
  BM_CHECK_GE(num_vertices, 0);
  BM_CHECK_GT(scale, 0.0);
  stride_ = static_cast<std::size_t>(2 * n_ + 1);
  g_.assign(stride_ * stride_, EdgeSlot{});
  for (int u = 0; u <= 2 * n_; ++u) {
    for (int v = 0; v <= 2 * n_; ++v) {
      EdgeAt(u, v) = EdgeSlot{u, v, 0};
    }
  }
  lab_.assign(stride_, 0);
  match_.assign(stride_, 0);
  slack_.assign(stride_, 0);
  st_.assign(stride_, 0);
  pa_.assign(stride_, 0);
  s_label_.assign(stride_, -1);
  vis_.assign(stride_, 0);
  flower_.assign(stride_, {});
  flower_from_.assign(stride_, std::vector<int>(static_cast<std::size_t>(n_) + 1, 0));
}

void DenseMaxWeightMatcher::AddEdge(int u, int v, double weight) {
  if (weight <= 0.0) return;
  double scaled = weight * scale_;
  BM_CHECK_MSG(scaled < static_cast<double>(kInf) / 4,
               "edge weight too large for fixed-point scale");
  AddEdgeScaled(u, v, static_cast<std::int64_t>(std::llround(scaled)));
}

void DenseMaxWeightMatcher::AddEdgeScaled(int u, int v, std::int64_t weight) {
  BM_CHECK(u >= 0 && u < n_);
  BM_CHECK(v >= 0 && v < n_);
  if (u == v || weight <= 0) return;
  EdgeSlot& e = EdgeAt(u + 1, v + 1);
  if (weight > e.w) {
    e.w = weight;
    EdgeAt(v + 1, u + 1).w = weight;
  }
}

std::int64_t DenseMaxWeightMatcher::EDelta(const EdgeSlot& e) const {
  return lab_[static_cast<std::size_t>(e.u)] + lab_[static_cast<std::size_t>(e.v)] -
         EdgeAt(e.u, e.v).w * 2;
}

void DenseMaxWeightMatcher::UpdateSlack(int u, int x) {
  if (slack_[static_cast<std::size_t>(x)] == 0 ||
      EDelta(EdgeAt(u, x)) < EDelta(EdgeAt(slack_[static_cast<std::size_t>(x)], x))) {
    slack_[static_cast<std::size_t>(x)] = u;
  }
}

void DenseMaxWeightMatcher::SetSlack(int x) {
  slack_[static_cast<std::size_t>(x)] = 0;
  for (int u = 1; u <= n_; ++u) {
    if (EdgeAt(u, x).w > 0 && st_[static_cast<std::size_t>(u)] != x &&
        s_label_[static_cast<std::size_t>(st_[static_cast<std::size_t>(u)])] == 0) {
      UpdateSlack(u, x);
    }
  }
}

void DenseMaxWeightMatcher::QPush(int x) {
  if (x <= n_) {
    queue_.push_back(x);
  } else {
    for (int t : flower_[static_cast<std::size_t>(x)]) QPush(t);
  }
}

void DenseMaxWeightMatcher::SetSt(int x, int b) {
  st_[static_cast<std::size_t>(x)] = b;
  if (x > n_) {
    for (int t : flower_[static_cast<std::size_t>(x)]) SetSt(t, b);
  }
}

int DenseMaxWeightMatcher::GetPr(int b, int xr) {
  auto& f = flower_[static_cast<std::size_t>(b)];
  int pr = static_cast<int>(std::find(f.begin(), f.end(), xr) - f.begin());
  if (pr % 2 == 1) {
    // Walk the cycle the other way so the even-length side is used.
    std::reverse(f.begin() + 1, f.end());
    return static_cast<int>(f.size()) - pr;
  }
  return pr;
}

void DenseMaxWeightMatcher::SetMatch(int u, int v) {
  match_[static_cast<std::size_t>(u)] = EdgeAt(u, v).v;
  if (u <= n_) return;
  EdgeSlot e = EdgeAt(u, v);
  int xr = flower_from_[static_cast<std::size_t>(u)][static_cast<std::size_t>(e.u)];
  int pr = GetPr(u, xr);
  auto& f = flower_[static_cast<std::size_t>(u)];
  for (int i = 0; i < pr; ++i) SetMatch(f[static_cast<std::size_t>(i)], f[static_cast<std::size_t>(i ^ 1)]);
  SetMatch(xr, v);
  std::rotate(f.begin(), f.begin() + pr, f.end());
}

void DenseMaxWeightMatcher::Augment(int u, int v) {
  while (true) {
    int xnv = st_[static_cast<std::size_t>(match_[static_cast<std::size_t>(u)])];
    SetMatch(u, v);
    if (xnv == 0) return;
    SetMatch(xnv, st_[static_cast<std::size_t>(pa_[static_cast<std::size_t>(xnv)])]);
    u = st_[static_cast<std::size_t>(pa_[static_cast<std::size_t>(xnv)])];
    v = xnv;
  }
}

int DenseMaxWeightMatcher::GetLca(int u, int v) {
  for (++lca_clock_; u != 0 || v != 0; std::swap(u, v)) {
    if (u == 0) continue;
    if (vis_[static_cast<std::size_t>(u)] == lca_clock_) return u;
    vis_[static_cast<std::size_t>(u)] = lca_clock_;
    u = st_[static_cast<std::size_t>(match_[static_cast<std::size_t>(u)])];
    if (u != 0) u = st_[static_cast<std::size_t>(pa_[static_cast<std::size_t>(u)])];
  }
  return 0;
}

void DenseMaxWeightMatcher::AddBlossom(int u, int lca, int v) {
  int b = n_ + 1;
  while (b <= n_x_ && st_[static_cast<std::size_t>(b)] != 0) ++b;
  if (b > n_x_) ++n_x_;
  BM_CHECK_LE(b, 2 * n_);

  lab_[static_cast<std::size_t>(b)] = 0;
  s_label_[static_cast<std::size_t>(b)] = 0;
  match_[static_cast<std::size_t>(b)] = match_[static_cast<std::size_t>(lca)];
  auto& f = flower_[static_cast<std::size_t>(b)];
  f.clear();
  f.push_back(lca);
  for (int x = u, y; x != lca; x = st_[static_cast<std::size_t>(pa_[static_cast<std::size_t>(y)])]) {
    f.push_back(x);
    y = st_[static_cast<std::size_t>(match_[static_cast<std::size_t>(x)])];
    f.push_back(y);
    QPush(y);
  }
  std::reverse(f.begin() + 1, f.end());
  for (int x = v, y; x != lca; x = st_[static_cast<std::size_t>(pa_[static_cast<std::size_t>(y)])]) {
    f.push_back(x);
    y = st_[static_cast<std::size_t>(match_[static_cast<std::size_t>(x)])];
    f.push_back(y);
    QPush(y);
  }
  SetSt(b, b);
  for (int x = 1; x <= n_x_; ++x) {
    EdgeAt(b, x).w = 0;
    EdgeAt(x, b).w = 0;
  }
  std::fill(flower_from_[static_cast<std::size_t>(b)].begin(),
            flower_from_[static_cast<std::size_t>(b)].end(), 0);
  for (int xs : f) {
    for (int x = 1; x <= n_x_; ++x) {
      if (EdgeAt(b, x).w == 0 || EDelta(EdgeAt(xs, x)) < EDelta(EdgeAt(b, x))) {
        EdgeAt(b, x) = EdgeAt(xs, x);
        EdgeAt(x, b) = EdgeAt(x, xs);
      }
    }
    for (int x = 1; x <= n_; ++x) {
      if (flower_from_[static_cast<std::size_t>(xs)][static_cast<std::size_t>(x)] != 0) {
        flower_from_[static_cast<std::size_t>(b)][static_cast<std::size_t>(x)] = xs;
      }
    }
  }
  SetSlack(b);
}

void DenseMaxWeightMatcher::ExpandBlossom(int b) {
  auto& f = flower_[static_cast<std::size_t>(b)];
  for (int t : f) SetSt(t, t);
  int xr = flower_from_[static_cast<std::size_t>(b)][static_cast<std::size_t>(
      EdgeAt(b, pa_[static_cast<std::size_t>(b)]).u)];
  int pr = GetPr(b, xr);
  for (int i = 0; i < pr; i += 2) {
    int xs = f[static_cast<std::size_t>(i)];
    int xns = f[static_cast<std::size_t>(i) + 1];
    pa_[static_cast<std::size_t>(xs)] = EdgeAt(xns, xs).u;
    s_label_[static_cast<std::size_t>(xs)] = 1;
    s_label_[static_cast<std::size_t>(xns)] = 0;
    slack_[static_cast<std::size_t>(xs)] = 0;
    SetSlack(xns);
    QPush(xns);
  }
  s_label_[static_cast<std::size_t>(xr)] = 1;
  pa_[static_cast<std::size_t>(xr)] = pa_[static_cast<std::size_t>(b)];
  for (std::size_t i = static_cast<std::size_t>(pr) + 1; i < f.size(); ++i) {
    int xs = f[i];
    s_label_[static_cast<std::size_t>(xs)] = -1;
    SetSlack(xs);
  }
  st_[static_cast<std::size_t>(b)] = 0;
}

bool DenseMaxWeightMatcher::OnFoundEdge(const EdgeSlot& e) {
  int u = st_[static_cast<std::size_t>(e.u)];
  int v = st_[static_cast<std::size_t>(e.v)];
  if (s_label_[static_cast<std::size_t>(v)] == -1) {
    // Grow the alternating tree: v becomes inner, its mate outer.
    pa_[static_cast<std::size_t>(v)] = e.u;
    s_label_[static_cast<std::size_t>(v)] = 1;
    int nu = st_[static_cast<std::size_t>(match_[static_cast<std::size_t>(v)])];
    slack_[static_cast<std::size_t>(v)] = 0;
    slack_[static_cast<std::size_t>(nu)] = 0;
    s_label_[static_cast<std::size_t>(nu)] = 0;
    QPush(nu);
  } else if (s_label_[static_cast<std::size_t>(v)] == 0) {
    int lca = GetLca(u, v);
    if (lca == 0) {
      Augment(u, v);
      Augment(v, u);
      return true;
    }
    AddBlossom(u, lca, v);
  }
  return false;
}

bool DenseMaxWeightMatcher::MatchingPhase() {
  std::fill(s_label_.begin(), s_label_.begin() + n_x_ + 1, -1);
  std::fill(slack_.begin(), slack_.begin() + n_x_ + 1, 0);
  queue_.clear();
  for (int x = 1; x <= n_x_; ++x) {
    if (st_[static_cast<std::size_t>(x)] == x && match_[static_cast<std::size_t>(x)] == 0) {
      pa_[static_cast<std::size_t>(x)] = 0;
      s_label_[static_cast<std::size_t>(x)] = 0;
      QPush(x);
    }
  }
  if (queue_.empty()) return false;

  while (true) {
    while (!queue_.empty()) {
      int u = queue_.front();
      queue_.pop_front();
      if (s_label_[static_cast<std::size_t>(st_[static_cast<std::size_t>(u)])] == 1) continue;
      for (int v = 1; v <= n_; ++v) {
        if (EdgeAt(u, v).w > 0 &&
            st_[static_cast<std::size_t>(u)] != st_[static_cast<std::size_t>(v)]) {
          if (EDelta(EdgeAt(u, v)) == 0) {
            if (OnFoundEdge(EdgeAt(u, v))) return true;
          } else {
            UpdateSlack(u, st_[static_cast<std::size_t>(v)]);
          }
        }
      }
    }

    // Dual adjustment.
    std::int64_t d = kInf;
    for (int b = n_ + 1; b <= n_x_; ++b) {
      if (st_[static_cast<std::size_t>(b)] == b && s_label_[static_cast<std::size_t>(b)] == 1) {
        d = std::min(d, lab_[static_cast<std::size_t>(b)] / 2);
      }
    }
    for (int x = 1; x <= n_x_; ++x) {
      if (st_[static_cast<std::size_t>(x)] == x && slack_[static_cast<std::size_t>(x)] != 0) {
        std::int64_t delta = EDelta(EdgeAt(slack_[static_cast<std::size_t>(x)], x));
        if (s_label_[static_cast<std::size_t>(x)] == -1) {
          d = std::min(d, delta);
        } else if (s_label_[static_cast<std::size_t>(x)] == 0) {
          d = std::min(d, delta / 2);
        }
      }
    }
    for (int u = 1; u <= n_; ++u) {
      int lbl = s_label_[static_cast<std::size_t>(st_[static_cast<std::size_t>(u)])];
      if (lbl == 0) {
        if (lab_[static_cast<std::size_t>(u)] <= d) return false;  // Duals exhausted.
        lab_[static_cast<std::size_t>(u)] -= d;
      } else if (lbl == 1) {
        lab_[static_cast<std::size_t>(u)] += d;
      }
    }
    for (int b = n_ + 1; b <= n_x_; ++b) {
      if (st_[static_cast<std::size_t>(b)] == b) {
        if (s_label_[static_cast<std::size_t>(b)] == 0) {
          lab_[static_cast<std::size_t>(b)] += d * 2;
        } else if (s_label_[static_cast<std::size_t>(b)] == 1) {
          lab_[static_cast<std::size_t>(b)] -= d * 2;
        }
      }
    }

    queue_.clear();
    for (int x = 1; x <= n_x_; ++x) {
      if (st_[static_cast<std::size_t>(x)] == x && slack_[static_cast<std::size_t>(x)] != 0 &&
          st_[static_cast<std::size_t>(slack_[static_cast<std::size_t>(x)])] != x &&
          EDelta(EdgeAt(slack_[static_cast<std::size_t>(x)], x)) == 0) {
        if (OnFoundEdge(EdgeAt(slack_[static_cast<std::size_t>(x)], x))) return true;
      }
    }
    for (int b = n_ + 1; b <= n_x_; ++b) {
      if (st_[static_cast<std::size_t>(b)] == b && s_label_[static_cast<std::size_t>(b)] == 1 &&
          lab_[static_cast<std::size_t>(b)] == 0) {
        ExpandBlossom(b);
      }
    }
  }
}

MatchingResult DenseMaxWeightMatcher::Solve() {
  BM_CHECK_MSG(!solved_, "Solve() may only be called once");
  solved_ = true;

  n_x_ = n_;
  std::int64_t w_max = 0;
  for (int u = 1; u <= n_; ++u) {
    st_[static_cast<std::size_t>(u)] = u;
    flower_[static_cast<std::size_t>(u)].clear();
    flower_from_[static_cast<std::size_t>(u)][static_cast<std::size_t>(u)] = u;
    for (int v = 1; v <= n_; ++v) w_max = std::max(w_max, EdgeAt(u, v).w);
  }
  for (int u = 1; u <= n_; ++u) lab_[static_cast<std::size_t>(u)] = w_max;

  while (MatchingPhase()) {
  }

  MatchingResult result;
  result.mate.assign(static_cast<std::size_t>(n_), -1);
  for (int u = 1; u <= n_; ++u) {
    int m = match_[static_cast<std::size_t>(u)];
    if (m != 0) {
      result.mate[static_cast<std::size_t>(u) - 1] = m - 1;
      if (u < m) result.total_weight_scaled += EdgeAt(u, m).w;
    }
  }
  result.total_weight = static_cast<double>(result.total_weight_scaled) / scale_;
  return result;
}

}  // namespace bundlemine
