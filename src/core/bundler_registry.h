// The method table: one constant row per method key, the construction API
// behind every front end (Engine, sweep runner, CLI, bench harnesses, tests).
//
// A row states everything a key implies: its display name, the solver, the
// strategy it forces ("pure-matching" → pure), its size cap ("two-sized" →
// 2) and the largest item count its solver takes. So a method key means
// exactly the same thing everywhere, and scenario sweeps can be driven
// entirely by strings from a config file or the command line.

#ifndef BUNDLEMINE_CORE_BUNDLER_REGISTRY_H_
#define BUNDLEMINE_CORE_BUNDLER_REGISTRY_H_

#include <optional>
#include <string>
#include <vector>

#include "core/problem.h"
#include "core/solution.h"
#include "core/solve_context.h"

namespace bundlemine {

/// One row of the method table.
struct Method {
  const char* key;           ///< "mixed-matching".
  const char* display_name;  ///< "Mixed Matching"; also BundleSolution::method.
  BundleSolution (*solve)(const BundleConfigProblem&, SolveContext&);
  std::optional<BundlingStrategy> strategy;  ///< Forced strategy, if any.
  int max_bundle_size;  ///< Forced size cap; 0 keeps the problem's.
  int item_limit;       ///< Most items the solver takes; 0 for no limit.

  /// `problem` as the solver sees it: the row's strategy and size cap
  /// applied.
  BundleConfigProblem Adjust(BundleConfigProblem problem) const;
};

/// The row for `key`, or nullptr when unknown.
const Method* FindMethod(const std::string& key);

/// Every method key, sorted.
std::vector<std::string> MethodKeys();

/// Table dispatch: runs the method on a copy of `problem` with the row's
/// strategy and size cap applied, and stamps the solution's method (the
/// display name) and solve_seconds. This is the cell-level solve primitive
/// used by Engine::Solve and the sweep runner's cell loop. Front ends go
/// through the Engine (api/engine.h), whose typed Status errors replace the
/// BM_CHECK aborts of an unknown key here and of an item count above the
/// row's limit in the WSP solvers.
///
/// Method keys (see bundler_registry.cc for the table):
///   "components"        – Components, optimal per-item pricing
///   "components-list"   – Components at dataset list prices (Table 2)
///   "pure-matching"     – Algorithm 1, pure bundling
///   "mixed-matching"    – Algorithm 1, mixed bundling
///   "pure-greedy"       – Algorithm 2, pure bundling
///   "mixed-greedy"      – Algorithm 2, mixed bundling
///   "pure-freq"         – Pure FreqItemset baseline
///   "mixed-freq"        – Mixed FreqItemset baseline
///   "two-sized"         – optimal 2-sized pure bundling (k = 2 matching)
///   "optimal-wsp"       – exact set packing over full enumeration (≤ 20 items)
///   "greedy-wsp"        – greedy set packing, w/√|b| ratio (≤ 25 items)
///   "greedy-wsp-avg"    – greedy set packing, w/|b| ratio (≤ 25 items)
BundleSolution SolveMethod(const std::string& key, BundleConfigProblem problem);

/// Same, with an explicit runtime context (parallel width, deadline, stats).
BundleSolution SolveMethod(const std::string& key, BundleConfigProblem problem,
                           SolveContext& context);

/// Display name for a method key ("mixed-matching" → "Mixed Matching").
/// Aborts on unknown keys.
std::string MethodDisplayName(const std::string& key);

/// The six bundling methods + Components compared throughout Section 6.2.
std::vector<std::string> StandardMethodKeys();

}  // namespace bundlemine

#endif  // BUNDLEMINE_CORE_BUNDLER_REGISTRY_H_
