// Common interface implemented by every bundle-configuration algorithm.

#ifndef BUNDLEMINE_CORE_BUNDLER_H_
#define BUNDLEMINE_CORE_BUNDLER_H_

#include <string>

#include "core/problem.h"
#include "core/solution.h"
#include "core/solve_context.h"

namespace bundlemine {

/// A bundle-configuration algorithm. Implementations are stateless across
/// calls; all instance data lives in the problem, and all per-solve runtime
/// state (scratch buffers, rng, parallel width, deadline) lives in the
/// SolveContext.
class Bundler {
 public:
  virtual ~Bundler() = default;

  /// Solves the configuration problem using the given runtime context. The
  /// returned solution's offers follow the attribution rules documented on
  /// PricedBundle. Implementations must produce identical solutions for a
  /// serial and a multi-threaded context.
  virtual BundleSolution Solve(const BundleConfigProblem& problem,
                               SolveContext& context) const = 0;

  /// Convenience overload: solves with a default (serial, no-deadline)
  /// context. Derived classes inherit this via `using Bundler::Solve`.
  BundleSolution Solve(const BundleConfigProblem& problem) const;

  /// Display name ("Pure Matching", "Mixed Greedy", ...).
  virtual std::string name() const = 0;
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_CORE_BUNDLER_H_
