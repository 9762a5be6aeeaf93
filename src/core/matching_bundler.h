// Matching-based bundling heuristic (paper Algorithm 1).
//
// Iteratively runs maximum-weight matching over the current bundles:
// round 1 considers co-interested item pairs, each matched pair collapses
// into a bundle vertex, and later rounds only introduce edges incident to
// newly-formed vertices (the paper's two pruning strategies, both togglable
// through BundleConfigProblem). The loop stops when a round's matching no
// longer improves total revenue. Supports both pure bundling (edge weight =
// merged standalone revenue minus the parts) and mixed bundling (edge weight
// = incremental gain of offering the merged bundle alongside its parts).
//
// With max_bundle_size = 2 a single round runs on the full pair graph, which
// is the paper's *optimal* 2-sized configuration (Section 5.1) — exactness
// is inherited from the blossom matcher.

#ifndef BUNDLEMINE_CORE_MATCHING_BUNDLER_H_
#define BUNDLEMINE_CORE_MATCHING_BUNDLER_H_

#include "core/bundler.h"

namespace bundlemine {

/// Algorithm 1. Stateless; all knobs come from the problem. Candidate-edge
/// evaluation runs on the shared thread pool at the context's width; results
/// are gathered in candidate order, so a parallel solve is bit-identical to a
/// serial one.
class MatchingBundler : public Bundler {
 public:
  MatchingBundler() = default;

  using Bundler::Solve;
  BundleSolution Solve(const BundleConfigProblem& problem,
                       SolveContext& context) const override;
  std::string name() const override { return "Matching"; }
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_CORE_MATCHING_BUNDLER_H_
