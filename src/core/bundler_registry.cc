#include "core/bundler_registry.h"

#include <utility>

#include "core/solvers.h"
#include "util/check.h"
#include "util/timer.h"

namespace bundlemine {
namespace {

constexpr BundlingStrategy kPure = BundlingStrategy::kPure;
constexpr BundlingStrategy kMixed = BundlingStrategy::kMixed;

// Sorted by key: MethodKeys() lists the rows in table order.
constexpr Method kMethods[] = {
    {"components", "Components",
     [](const BundleConfigProblem& p, SolveContext& c) {
       return SolveComponents(p, c, ComponentPricing::kOptimal);
     },
     std::nullopt, 0, 0},
    {"components-list", "Components (list price)",
     [](const BundleConfigProblem& p, SolveContext& c) {
       return SolveComponents(p, c, ComponentPricing::kListPrice);
     },
     std::nullopt, 0, 0},
    {"greedy-wsp", "Greedy WSP",
     [](const BundleConfigProblem& p, SolveContext& c) {
       return SolveGreedyWsp(p, c, /*average_per_item=*/false);
     },
     kPure, 0, 25},
    {"greedy-wsp-avg", "Greedy WSP (avg ratio)",
     [](const BundleConfigProblem& p, SolveContext& c) {
       return SolveGreedyWsp(p, c, /*average_per_item=*/true);
     },
     kPure, 0, 25},
    {"mixed-freq", "Mixed FreqItemset", SolveFreqItemset, kMixed, 0, 0},
    {"mixed-greedy", "Mixed Greedy", SolveGreedy, kMixed, 0, 0},
    {"mixed-matching", "Mixed Matching", SolveMatching, kMixed, 0, 0},
    {"optimal-wsp", "Optimal", SolveOptimalWsp, kPure, 0, 20},
    {"pure-freq", "Pure FreqItemset", SolveFreqItemset, kPure, 0, 0},
    {"pure-greedy", "Pure Greedy", SolveGreedy, kPure, 0, 0},
    {"pure-matching", "Pure Matching", SolveMatching, kPure, 0, 0},
    {"two-sized", "2-sized Optimal", SolveMatching, kPure, 2, 0},
};

}  // namespace

BundleConfigProblem Method::Adjust(BundleConfigProblem problem) const {
  if (strategy) problem.strategy = *strategy;
  if (max_bundle_size > 0) problem.max_bundle_size = max_bundle_size;
  return problem;
}

const Method* FindMethod(const std::string& key) {
  for (const Method& method : kMethods) {
    if (key == method.key) return &method;
  }
  return nullptr;
}

std::vector<std::string> MethodKeys() {
  std::vector<std::string> keys;
  for (const Method& method : kMethods) keys.emplace_back(method.key);
  return keys;
}

BundleSolution SolveMethod(const std::string& key, BundleConfigProblem problem) {
  SolveContext context;
  return SolveMethod(key, std::move(problem), context);
}

BundleSolution SolveMethod(const std::string& key, BundleConfigProblem problem,
                           SolveContext& context) {
  const Method* method = FindMethod(key);
  BM_CHECK_MSG(method != nullptr, "unknown method key");
  WallTimer timer;
  BundleSolution solution =
      method->solve(method->Adjust(std::move(problem)), context);
  solution.method = method->display_name;
  solution.solve_seconds = timer.Seconds();
  return solution;
}

std::string MethodDisplayName(const std::string& key) {
  const Method* method = FindMethod(key);
  BM_CHECK_MSG(method != nullptr, "unknown method key");
  return method->display_name;
}

std::vector<std::string> StandardMethodKeys() {
  return {"components",  "pure-matching", "pure-greedy", "pure-freq",
          "mixed-matching", "mixed-greedy",  "mixed-freq"};
}

}  // namespace bundlemine
