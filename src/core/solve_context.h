// Per-solve runtime state shared by every bundling algorithm.
//
// A SolveContext bundles the resources a solver needs beyond the problem
// statement itself: a pool of PricingWorkspaces (one per worker slot, so
// the pricing hot path never allocates), a deterministic Rng, an optional
// wall-clock deadline, a stats sink, and a width at which parallel candidate
// evaluation borrows the process-wide ThreadPool. Solvers receive the
// context through SolveMethod; its context-free overload constructs a
// default (serial, no-deadline) context, so casual callers never see this
// type.
//
// A context may be reused across sequential solves (workspace buffers stay
// warm, the Rng stream continues) but must not be shared by concurrent
// solves.

#ifndef BUNDLEMINE_CORE_SOLVE_CONTEXT_H_
#define BUNDLEMINE_CORE_SOLVE_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "pricing/pricing_workspace.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace bundlemine {

struct ResolveHints;  // core/resolve_hints.h

/// Counters a solve fills in as it runs. Written only from the coordinating
/// thread (parallel sections report batch totals after joining), so plain
/// integers suffice and the counts are deterministic.
struct SolveStats {
  std::int64_t pairs_evaluated = 0;  ///< Candidate merges priced.
  /// Candidate merges answered from a prior solve's cached outcomes instead
  /// of being priced (incremental re-solve). Batch solves leave this 0;
  /// pairs_evaluated + pairs_reused is invariant across the two paths.
  std::int64_t pairs_reused = 0;
  std::int64_t merges = 0;           ///< Merges committed.
  int rounds = 0;                    ///< Matching rounds / greedy iterations.
  bool deadline_hit = false;         ///< Solve stopped early on the deadline.

  void Reset() { *this = SolveStats{}; }
};

/// Owns the runtime resources of one solve (or a sequence of solves).
class SolveContext {
 public:
  struct Options {
    /// Width of candidate evaluation on the shared ThreadPool: the calling
    /// thread plus up to num_threads − 1 idle workers. <= 1 solves serially
    /// on the calling thread. Results are bit-identical at any width.
    int num_threads = 1;
    /// Seed for the context Rng (sampled adoption, randomized baselines).
    std::uint64_t seed = 0x42ULL;
    /// Wall-clock budget in seconds; 0 disables the deadline. Algorithms
    /// checking the deadline stop refining and return the best configuration
    /// found so far (always structurally valid). The check sits at round /
    /// iteration granularity — a finer-grained mid-round abort would make
    /// the result depend on timing and break serial/parallel bit-identity —
    /// so a solve can overshoot the budget by up to one round.
    double deadline_seconds = 0.0;
  };

  SolveContext() : SolveContext(Options{}) {}
  explicit SolveContext(const Options& options);

  SolveContext(const SolveContext&) = delete;
  SolveContext& operator=(const SolveContext&) = delete;

  /// Runs fn(index, slot) for every index in [0, n) on the shared
  /// ThreadPool at the context's width; `slot` < num_slots() indexes
  /// workspace(). A serial context runs a plain loop with slot 0.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t index, int slot)>& fn) {
    ThreadPool::Shared().ParallelFor(n, options_.num_threads, fn);
  }

  /// Number of per-thread workspace slots (1 when serial).
  int num_slots() const { return static_cast<int>(workspaces_.size()); }

  /// Scratch workspace for worker `slot` ∈ [0, num_slots()). Slot 0 is the
  /// coordinating thread's workspace — serial code just uses workspace().
  PricingWorkspace& workspace(int slot = 0) { return *workspaces_[static_cast<std::size_t>(slot)]; }

  Rng& rng() { return rng_; }
  SolveStats& stats() { return stats_; }
  const SolveStats& stats() const { return stats_; }
  const Options& options() const { return options_; }

  /// True when a deadline is set and has elapsed.
  bool DeadlineExceeded() const {
    return options_.deadline_seconds > 0.0 &&
           timer_.Seconds() >= options_.deadline_seconds;
  }

  /// Incremental re-solve hints (prior-pair-outcome cache, dirty-item mask,
  /// maintained transaction view), or nullptr for a batch solve. Borrowed —
  /// the setter (Engine::Resolve) keeps them alive through the solve.
  const ResolveHints* resolve_hints() const { return resolve_hints_; }
  void set_resolve_hints(const ResolveHints* hints) { resolve_hints_ = hints; }

 private:
  Options options_;
  const ResolveHints* resolve_hints_ = nullptr;
  std::vector<std::unique_ptr<PricingWorkspace>> workspaces_;
  Rng rng_;
  SolveStats stats_;
  WallTimer timer_;
};

/// Stop-condition functor bridging the context deadline into cooperative
/// cancellation loops (WSP enumeration/packing, the frequent-itemset
/// miners). Returns an empty function when no deadline is set, so hot loops
/// skip the std::function call entirely; flags stats().deadline_hit the
/// moment a loop actually observes the expired deadline. The returned
/// functor borrows `context` and must not outlive it.
std::function<bool()> DeadlineStopCondition(SolveContext& context);

}  // namespace bundlemine

#endif  // BUNDLEMINE_CORE_SOLVE_CONTEXT_H_
