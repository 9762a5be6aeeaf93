// Engine — the library's public request/response facade.
//
// Every front end (CLI, examples, bench harnesses, and any future serving
// loop) talks to the solver and the scenario engine through this one
// surface: build a request struct, call the Engine, get a StatusOr back.
// The design goals, in order:
//
//   * No aborts on user input. Unknown method keys, unknown presets, bad
//     spec text, unreadable files, and bad shard ranges all come back as
//     typed `Status` errors whose messages list the valid alternatives.
//     BM_CHECK remains for programming errors only.
//   * Amortized data work. One cache class (util/lru_cache.h) serves
//     every piece of data work a request repeats: generated datasets keyed
//     by (profile, seed, overrides); WTP matrices keyed by (dataset, λ);
//     maximal frequent itemsets keyed by (dataset, support count), which
//     depend on WTP positivity only, so the freq cells of every θ and λ
//     share one mine; and the incremental-resolve lines. A miss computes
//     outside the lock while concurrent askers of the same key wait, so one
//     tenant's cold load never delays another tenant's hit. A market's
//     derived entries live in its own namespace and leave with it.
//     Sweep cells and batch requests fan out over the process-wide
//     ThreadPool, which concurrent requests share without queueing.
//   * Determinism. Solve/Sweep responses are bit-identical at any thread
//     count, SolveBatch equals per-request Solve calls, and a sharded sweep
//     (`--shard=i/n` filtering by stable cell index) solves each of its
//     cells bit-identically to the full run — the shards partition the
//     grid, so artifacts can be merged back together.
//
// The Engine is the whole public surface: the legacy RunMethod/RunSweep
// wrappers are gone, and the method table's SolveMethod dispatch
// (core/bundler_registry.h) is an internal cell-solve primitive. The
// bundlemined serving loop (serve/server.h) sits directly on top of this
// facade — one Engine per server process, so its caches are shared by
// every connection.

#ifndef BUNDLEMINE_API_ENGINE_H_
#define BUNDLEMINE_API_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/problem.h"
#include "core/resolve_hints.h"
#include "core/solution.h"
#include "core/solve_context.h"
#include "data/ratings.h"
#include "data/wtp_matrix.h"
#include "scenario/scenario_spec.h"
#include "scenario/sweep_runner.h"
#include "util/lru_cache.h"
#include "util/status.h"

namespace bundlemine {

class MarketStream;  // market/market_stream.h

/// Per-request runtime knobs shared by solve and sweep requests.
struct RequestOptions {
  /// Worker threads. For solves: candidate-evaluation threads inside the
  /// algorithm. For sweeps: workers across cells. 0 uses the Engine's
  /// configured width. Results are bit-identical at any count.
  int threads = 0;
  /// Wall-clock budget in seconds (0 = none). Deadline-aware solvers stop
  /// refining and return the best valid configuration found so far, with
  /// stats.deadline_hit set. Sweeps apply the budget per cell.
  double deadline_seconds = 0.0;
  /// Seed for the solve's Rng (sweeps derive per-cell seeds from the
  /// scenario seed instead and ignore this).
  std::uint64_t seed = 0x42ULL;
};

/// One solve: a method key plus either a caller-owned problem or a dataset
/// reference the Engine materializes (and caches) itself.
struct SolveRequest {
  /// Method-table key ("mixed-matching", ...). Required.
  std::string method;

  /// Caller-owned problem; must outlive the call. When set, the dataset
  /// reference below is ignored.
  const BundleConfigProblem* problem = nullptr;

  /// Dataset reference: generator profile + seed + overrides, with `lambda`
  /// converting ratings to WTP. Served through the Engine's dataset cache.
  std::optional<DatasetSpec> dataset;
  /// Problem knobs applied when solving from a dataset reference.
  double theta = 0.0;
  int max_bundle_size = 0;   ///< 0 = unconstrained.
  int price_levels = 100;    ///< Price-grid resolution T (0 = exact).

  RequestOptions options;
};

struct SolveResponse {
  BundleSolution solution;
  SolveStats stats;
  double wall_seconds = 0.0;
};

/// One sweep: a validated-on-entry ScenarioSpec plus runtime options and an
/// optional shard selector.
struct SweepRequest {
  ScenarioSpec spec;
  RequestOptions options;
  /// Shard selector: run only the cells whose stable grid index i satisfies
  /// i mod shard_count == shard_index. The default (0 of 1) runs the whole
  /// grid. Requires 0 <= shard_index < shard_count.
  int shard_index = 0;
  int shard_count = 1;
  /// Capture each cell's per-iteration revenue trace
  /// (SweepCellResult::trace) — the Figure 6 harness's cell recorder.
  /// Trace revenues are deterministic; artifacts stay byte-identical.
  bool capture_traces = false;
};

struct SweepResponse {
  /// Results for the executed cells (the whole grid, or one shard's slice),
  /// in stable grid order.
  SweepResult result;
  /// Unsharded grid size; equals result.cells.size() iff shard_count == 1.
  int grid_cells = 0;
  /// Whether the dataset came out of the Engine's cache.
  bool dataset_cache_hit = false;
};

/// One incremental re-solve: a scenario spec evaluated against the current
/// state of a MarketStream instead of a generated dataset. The spec's
/// dataset reference is ignored (the market supplies the data) and dataset
/// axes are rejected — everything else (problem axes, methods, sharding-free
/// full grid) behaves exactly like Sweep.
struct ResolveRequest {
  /// The market to solve against; must outlive the call. Required.
  MarketStream* market = nullptr;
  ScenarioSpec spec;
  RequestOptions options;
};

struct ResolveResponse {
  /// Full-grid sweep result over the market snapshot — byte-identical
  /// (through the artifact writer) to a batch Sweep over an equal dataset.
  SweepResult result;
  int grid_cells = 0;
  /// Market version the response reflects.
  std::uint64_t market_version = 0;
  /// True when the response came straight from the resolve cache (market
  /// unchanged since the previous resolve of the same spec) — zero solver
  /// work was done.
  bool response_cache_hit = false;
  /// Candidate evaluations summed over all cells: priced fresh vs answered
  /// from the previous resolve's cached outcomes. An incremental resolve
  /// after a small delta reports strictly fewer pairs_evaluated than a
  /// batch run (which reports pairs_reused == 0).
  std::int64_t pairs_evaluated = 0;
  std::int64_t pairs_reused = 0;
};

/// The facade. Thread-safe: concurrent Solve/SolveBatch/Sweep/Resolve calls
/// contend only on the cache locks, never held while computing. Each call
/// runs its parallel work as its own job on the process-wide ThreadPool — the
/// caller works on it and idle workers join up to the request's width — so
/// overlapping requests share the cores instead of queueing. One Engine per
/// process (or per tenant) is the intended shape — that is what makes the
/// caches pay off.
class Engine {
 public:
  struct Options {
    /// Default width on the shared ThreadPool for requests that leave
    /// options.threads at 0, and the width SolveBatch fans out at.
    int threads = 1;
    /// Generated datasets kept alive in the cache (LRU eviction). 0
    /// disables caching.
    std::size_t dataset_cache_capacity = 8;
    /// Derived WTP matrices kept alive, keyed by (dataset key, λ) — a
    /// dataset with three λ axis points occupies three entries. LRU
    /// eviction; 0 disables caching. Also bounds the mined-itemset cache,
    /// whose entries are keyed by (dataset key, support count).
    std::size_t wtp_cache_capacity = 8;
    /// Incremental-resolve cache entries kept alive, keyed by
    /// (market id, spec). Each entry holds the prior solve's per-cell
    /// pair-outcome caches plus the last response. LRU eviction; 0 disables
    /// resolve caching (every resolve then solves from scratch).
    std::size_t resolve_cache_capacity = 4;
  };

  Engine() : Engine(Options{}) {}
  explicit Engine(const Options& options);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Solves one request. Errors: NOT_FOUND for an unknown method key
  /// (message lists the keys), INVALID_ARGUMENT for a request with neither
  /// problem nor dataset, with a dataset that fails ValidateDatasetSpec, or
  /// with more items than the method's item limit.
  StatusOr<SolveResponse> Solve(const SolveRequest& request);

  /// Evaluates many requests across the shared pool at the Engine's width.
  /// The response vector is parallel to `requests`, each entry exactly what
  /// Solve would have returned — per-request errors do not fail the batch,
  /// and results are deterministic regardless of scheduling (each request
  /// solves with its own seed-derived context).
  std::vector<StatusOr<SolveResponse>> SolveBatch(
      const std::vector<SolveRequest>& requests);

  /// Runs a (possibly sharded) scenario sweep. Errors: INVALID_ARGUMENT for
  /// a spec that fails ValidateScenarioSpec (the message carries the
  /// diagnostic; unknown methods additionally list the keys), a bad shard
  /// range, or a grid cell whose dataset has more items than its method's
  /// item limit (checked over the whole grid before any cell runs).
  StatusOr<SweepResponse> Sweep(const SweepRequest& request);

  /// Materializes (through the dataset cache) the dataset a DatasetSpec
  /// names — the server's market-load path. Errors mirror Solve's dataset
  /// validation (ValidateDatasetSpec).
  StatusOr<std::shared_ptr<const RatingsDataset>> Dataset(
      const DatasetSpec& spec);

  /// Solves `request.spec` against a snapshot of `request.market`,
  /// incrementally: when the same (market, spec) pair was resolved before,
  /// only work touching items changed since is redone — in every matching
  /// round, a pair of offers built the same way from untouched items takes
  /// its cached outcome, and the market's maintained transaction index
  /// replaces the per-cell rebuild. If the
  /// market version is unchanged, the previous response is returned outright
  /// (response_cache_hit). Results are byte-identical to a batch Sweep over
  /// an equal dataset at any thread count. Deadline-limited resolves are
  /// never cached (their results are wall-clock-dependent). A market with
  /// more items than a listed method's item limit is INVALID_ARGUMENT.
  StatusOr<ResolveResponse> Resolve(const ResolveRequest& request);

  /// Cache observability (tests, ops endpoints). A request that waited for
  /// another's in-flight computation counts as a hit.
  using CacheStats = bundlemine::CacheStats;
  CacheStats dataset_cache_stats() const { return datasets_.stats(); }
  CacheStats wtp_cache_stats() const { return wtps_.stats(); }
  CacheStats itemset_cache_stats() const { return itemsets_.stats(); }
  CacheStats resolve_cache_stats() const { return resolves_.stats(); }
  /// Purges every cache entry derived from market `market_id` — its resolve
  /// lines, versioned WTP derivations and mined itemsets, all filed under
  /// the namespace "market:<id>". The market-registry eviction hook: once a
  /// market leaves residency, a later market under the same id must start
  /// from a cold cache, never inherit the old market's work.
  void EvictMarketCaches(const std::string& market_id);

  const Options& options() const { return options_; }

 private:
  /// One (market id, spec) resolve line: the per-cell pair-outcome caches
  /// (every round, keyed by merge tree) and the full response of the solve
  /// at market `version`.
  struct ResolveEntry {
    std::uint64_t version = 0;
    /// Indexed by cell index; empty while a resolve has them moved out.
    std::vector<MatchingPairCache> solver_cells;
    ResolveResponse response;
  };

  // Returns the cached dataset for `spec`, materializing (and inserting) on
  // a miss. `hit` (optional) reports whether the cache served it.
  std::shared_ptr<const RatingsDataset> DatasetFor(const DatasetSpec& spec,
                                                   bool* hit = nullptr);

  // Returns the WTP matrix derived from `dataset` at `lambda`, cached under
  // (ns, version + λ): `ns` is the dataset's DatasetKey (which excludes λ),
  // or a market namespace with `version` naming the market version.
  // FromRatings is a pure function of (dataset, λ), so cached entries are
  // bit-identical to fresh derivations.
  std::shared_ptr<const WtpMatrix> WtpFor(const std::string& ns,
                                          const std::string& version,
                                          const RatingsDataset& dataset,
                                          double lambda);

  // The ResolveHints::itemsets source for cells whose transactions are
  // named by (ns, version), as for WtpFor.
  ItemsetSource ItemsetsFor(std::string ns, std::string version);

  int EffectiveThreads(const RequestOptions& options) const {
    return options.threads > 0 ? options.threads : options_.threads;
  }

  Options options_;
  LruCache<std::shared_ptr<const RatingsDataset>> datasets_;
  LruCache<std::shared_ptr<const WtpMatrix>> wtps_;
  LruCache<MaximalItemsets> itemsets_;
  LruCache<ResolveEntry> resolves_;
};

/// Stable cache key of a dataset reference: profile, seed, generator
/// overrides, and the item-sample size (λ deliberately excluded — WTP
/// derivation is per-request). Alias of scenario-layer DatasetKey(): the
/// cache keys on exactly the fields a sweep's per-cell datasets vary, so
/// dataset-axis sweeps and repeated solves share materialized datasets.
std::string DatasetCacheKey(const DatasetSpec& spec);

/// OK iff `method` is a method-table key; otherwise the NOT_FOUND error
/// Solve would return, listing the keys. Lets front ends
/// reject a typo before doing expensive dataset work.
Status ValidateMethodKey(const std::string& method);

/// Resolves a scenario argument the way `configurator_cli --spec` accepts
/// it: a built-in preset name, "@path" naming a spec file, or inline
/// "key=value;..." text. The result is validated. Errors: NOT_FOUND for an
/// unknown preset (listing the preset names) or an unreadable file,
/// INVALID_ARGUMENT for unparsable or invalid spec text.
StatusOr<ScenarioSpec> ResolveScenarioSpec(const std::string& argument);

/// Parses a "--shard=i/n" value ("0/2") into (shard_index, shard_count).
/// INVALID_ARGUMENT on malformed text or an out-of-range pair.
StatusOr<std::pair<int, int>> ParseShard(const std::string& text);

}  // namespace bundlemine

#endif  // BUNDLEMINE_API_ENGINE_H_
