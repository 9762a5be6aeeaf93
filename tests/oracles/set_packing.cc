#include "oracles/set_packing.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace bundlemine {
namespace {

void ValidateInstance(const SetPackingInstance& instance) {
  BM_CHECK_EQ(instance.sets.size(), instance.weights.size());
  for (std::size_t j = 0; j < instance.sets.size(); ++j) {
    const auto& s = instance.sets[j];
    BM_CHECK_MSG(!s.empty(), "empty candidate set");
    for (std::size_t t = 0; t < s.size(); ++t) {
      BM_CHECK(s[t] >= 0 && s[t] < instance.num_items);
      if (t > 0) BM_CHECK_MSG(s[t - 1] < s[t], "sets must be sorted and distinct");
    }
    BM_CHECK_GT(instance.weights[j], 0.0);
  }
}

// Branch-and-bound state shared across the recursion.
struct BnbState {
  const SetPackingInstance* instance;
  // sets_by_item[i]: candidate sets containing item i.
  std::vector<std::vector<int>> sets_by_item;
  // Static admissible per-item bound: the best weight-per-item ratio of any
  // set containing the item. Σ over uncovered items bounds any completion.
  std::vector<double> item_bound;
  // Suffix sums of item_bound for O(1) bound queries over "items ≥ i".
  std::vector<double> bound_suffix;

  std::vector<char> covered;
  std::vector<int> chosen;
  double chosen_weight = 0.0;

  std::vector<int> best;
  double best_weight = 0.0;

  std::int64_t nodes = 0;
  std::int64_t max_nodes = 0;
  bool budget_hit = false;
};

// Upper bound for the subproblem where all items < first_item are decided:
// remaining achievable weight ≤ Σ_{uncovered i ≥ first_item} item_bound[i].
// We approximate the "uncovered" filter with the suffix sum (covered items
// only overestimate the bound, keeping it admissible).
double RemainingBound(const BnbState& st, int first_item) {
  return st.bound_suffix[static_cast<std::size_t>(first_item)];
}

void Dfs(BnbState* st, int first_item) {
  ++st->nodes;
  if (st->max_nodes > 0 && st->nodes > st->max_nodes) {
    st->budget_hit = true;
    return;
  }
  // Advance to the next undecided item.
  int n = st->instance->num_items;
  while (first_item < n && st->covered[static_cast<std::size_t>(first_item)]) {
    ++first_item;
  }
  if (st->chosen_weight > st->best_weight) {
    st->best_weight = st->chosen_weight;
    st->best = st->chosen;
  }
  if (first_item >= n) return;
  if (st->chosen_weight + RemainingBound(*st, first_item) <= st->best_weight) {
    return;  // Even a perfect completion cannot beat the incumbent.
  }

  // Branch 1..m: cover `first_item` with one of its candidate sets.
  for (int j : st->sets_by_item[static_cast<std::size_t>(first_item)]) {
    const auto& s = st->instance->sets[static_cast<std::size_t>(j)];
    bool free = true;
    for (int i : s) {
      if (st->covered[static_cast<std::size_t>(i)]) {
        free = false;
        break;
      }
    }
    if (!free) continue;
    for (int i : s) st->covered[static_cast<std::size_t>(i)] = 1;
    st->chosen.push_back(j);
    st->chosen_weight += st->instance->weights[static_cast<std::size_t>(j)];
    Dfs(st, first_item + 1);
    st->chosen_weight -= st->instance->weights[static_cast<std::size_t>(j)];
    st->chosen.pop_back();
    for (int i : s) st->covered[static_cast<std::size_t>(i)] = 0;
    if (st->budget_hit) return;
  }
  // Branch 0: leave `first_item` uncovered.
  st->covered[static_cast<std::size_t>(first_item)] = 1;
  Dfs(st, first_item + 1);
  st->covered[static_cast<std::size_t>(first_item)] = 0;
}

}  // namespace

SetPackingSolution SolveExact(const SetPackingInstance& instance,
                              std::int64_t max_nodes) {
  ValidateInstance(instance);
  BnbState st;
  st.instance = &instance;
  st.max_nodes = max_nodes;
  st.sets_by_item.assign(static_cast<std::size_t>(instance.num_items), {});
  st.item_bound.assign(static_cast<std::size_t>(instance.num_items), 0.0);
  for (std::size_t j = 0; j < instance.sets.size(); ++j) {
    double ratio = instance.weights[j] / static_cast<double>(instance.sets[j].size());
    for (int i : instance.sets[j]) {
      st.sets_by_item[static_cast<std::size_t>(i)].push_back(static_cast<int>(j));
      st.item_bound[static_cast<std::size_t>(i)] =
          std::max(st.item_bound[static_cast<std::size_t>(i)], ratio);
    }
  }
  // Trying heavier sets first tightens the incumbent quickly.
  for (auto& list : st.sets_by_item) {
    std::sort(list.begin(), list.end(), [&](int a, int b) {
      return instance.weights[static_cast<std::size_t>(a)] >
             instance.weights[static_cast<std::size_t>(b)];
    });
  }
  st.bound_suffix.assign(static_cast<std::size_t>(instance.num_items) + 1, 0.0);
  for (int i = instance.num_items - 1; i >= 0; --i) {
    st.bound_suffix[static_cast<std::size_t>(i)] =
        st.bound_suffix[static_cast<std::size_t>(i) + 1] +
        st.item_bound[static_cast<std::size_t>(i)];
  }
  st.covered.assign(static_cast<std::size_t>(instance.num_items), 0);

  Dfs(&st, 0);

  SetPackingSolution sol;
  sol.selected = st.best;
  std::sort(sol.selected.begin(), sol.selected.end());
  sol.total_weight = st.best_weight;
  sol.proven_optimal = !st.budget_hit;
  sol.nodes_explored = st.nodes;
  return sol;
}

SetPackingSolution SolveGreedy(const SetPackingInstance& instance,
                               GreedyRatio ratio) {
  ValidateInstance(instance);
  std::vector<int> order(instance.sets.size());
  for (std::size_t j = 0; j < order.size(); ++j) order[j] = static_cast<int>(j);
  auto score = [&](int j) {
    double size = static_cast<double>(instance.sets[static_cast<std::size_t>(j)].size());
    double denom = ratio == GreedyRatio::kAveragePerItem ? size : std::sqrt(size);
    return instance.weights[static_cast<std::size_t>(j)] / denom;
  };
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    double sa = score(a), sb = score(b);
    if (sa != sb) return sa > sb;
    return a < b;
  });

  SetPackingSolution sol;
  std::vector<char> covered(static_cast<std::size_t>(instance.num_items), 0);
  for (int j : order) {
    const auto& s = instance.sets[static_cast<std::size_t>(j)];
    bool free = true;
    for (int i : s) {
      if (covered[static_cast<std::size_t>(i)]) {
        free = false;
        break;
      }
    }
    if (!free) continue;
    for (int i : s) covered[static_cast<std::size_t>(i)] = 1;
    sol.selected.push_back(j);
    sol.total_weight += instance.weights[static_cast<std::size_t>(j)];
  }
  std::sort(sol.selected.begin(), sol.selected.end());
  return sol;
}

SetPackingSolution SolveBruteForce(const SetPackingInstance& instance) {
  ValidateInstance(instance);
  BM_CHECK_LE(instance.sets.size(), 24u);
  const std::size_t k = instance.sets.size();
  SetPackingSolution best;
  for (std::size_t mask = 0; mask < (static_cast<std::size_t>(1) << k); ++mask) {
    std::vector<char> covered(static_cast<std::size_t>(instance.num_items), 0);
    double weight = 0.0;
    bool feasible = true;
    for (std::size_t j = 0; j < k && feasible; ++j) {
      if (((mask >> j) & 1u) == 0u) continue;
      for (int i : instance.sets[j]) {
        if (covered[static_cast<std::size_t>(i)]) {
          feasible = false;
          break;
        }
        covered[static_cast<std::size_t>(i)] = 1;
      }
      weight += instance.weights[j];
    }
    if (feasible && weight > best.total_weight) {
      best.total_weight = weight;
      best.selected.clear();
      for (std::size_t j = 0; j < k; ++j) {
        if ((mask >> j) & 1u) best.selected.push_back(static_cast<int>(j));
      }
    }
  }
  return best;
}

bool IsFeasiblePacking(const SetPackingInstance& instance,
                       const std::vector<int>& selected) {
  std::vector<char> covered(static_cast<std::size_t>(instance.num_items), 0);
  for (int j : selected) {
    if (j < 0 || static_cast<std::size_t>(j) >= instance.sets.size()) return false;
    for (int i : instance.sets[static_cast<std::size_t>(j)]) {
      if (covered[static_cast<std::size_t>(i)]) return false;
      covered[static_cast<std::size_t>(i)] = 1;
    }
  }
  return true;
}

}  // namespace bundlemine
