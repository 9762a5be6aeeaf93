// Name → bundling-algorithm registry: the construction API behind every
// front end (runner, CLI, bench harnesses, tests).
//
// Each entry couples a factory with the problem adjustments its method key
// implies ("pure-matching" forces the pure strategy, "two-sized" additionally
// caps the bundle size at 2), so a method key means exactly the same thing
// everywhere — and scenario sweeps can be driven entirely by strings from a
// config file or the command line.

#ifndef BUNDLEMINE_CORE_BUNDLER_REGISTRY_H_
#define BUNDLEMINE_CORE_BUNDLER_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/bundler.h"

namespace bundlemine {

/// Registry of bundling algorithms constructible by method key. Thread-safe
/// for lookups after the built-ins are registered (first Global() call);
/// Register() is not synchronized and belongs in startup code.
class BundlerRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Bundler>()>;
  using ProblemAdjuster = std::function<void(BundleConfigProblem*)>;

  struct Entry {
    /// Display name ("mixed-matching" → "Mixed Matching").
    std::string display_name;
    /// Constructs a fresh bundler instance.
    Factory factory;
    /// Adjusts a problem copy to what the key implies (strategy, size cap);
    /// may be null when the key imposes nothing.
    ProblemAdjuster adjust;
    /// When non-empty, overrides BundleSolution::method after the solve
    /// ("two-sized" reuses MatchingBundler but reports "2-sized Optimal").
    std::string method_override;
  };

  /// The process-wide registry, with all built-in methods registered.
  static BundlerRegistry& Global();

  /// Registers a method key. Aborts on duplicates — a silently shadowed
  /// method would make sweep results lie.
  void Register(const std::string& key, Entry entry);

  bool Has(const std::string& key) const;

  /// Entry for `key`, or nullptr when unknown.
  const Entry* Find(const std::string& key) const;

  /// Constructs the bundler for `key`. Aborts on unknown keys.
  std::unique_ptr<Bundler> Create(const std::string& key) const;

  /// Display name for a key. Aborts on unknown keys.
  std::string DisplayName(const std::string& key) const;

  /// All registered keys, sorted.
  std::vector<std::string> Keys() const;

 private:
  std::map<std::string, Entry> entries_;
};

/// Registry dispatch: runs the method on a copy of `problem` with the
/// entry's adjustments (strategy, size caps) applied. This is the cell-level
/// solve primitive used by Engine::Solve and the sweep runner's cell loop —
/// front ends go through the Engine (api/engine.h), whose typed Status
/// errors replace the BM_CHECK abort this raises on an unknown key.
///
/// Canonical method keys (see bundler_registry.cc for the authoritative
/// list):
///   "components"        – Components, optimal per-item pricing
///   "components-list"   – Components at dataset list prices (Table 2)
///   "pure-matching"     – Algorithm 1, pure bundling
///   "mixed-matching"    – Algorithm 1, mixed bundling
///   "pure-greedy"       – Algorithm 2, pure bundling
///   "mixed-greedy"      – Algorithm 2, mixed bundling
///   "pure-freq"         – Pure FreqItemset baseline
///   "mixed-freq"        – Mixed FreqItemset baseline
///   "two-sized"         – optimal 2-sized pure bundling (k = 2 matching)
///   "optimal-wsp"       – exact set packing over full enumeration (small N)
///   "greedy-wsp"        – greedy set packing, w/√|b| ratio (small N)
///   "greedy-wsp-avg"    – greedy set packing, w/|b| ratio (small N)
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
