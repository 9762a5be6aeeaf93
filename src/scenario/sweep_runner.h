// Parallel execution of a ScenarioSpec's cell grid.
//
// The grid expands deterministically — axes form a cross product (first axis
// slowest), methods innermost — and every cell solves with a *fresh*
// SolveContext seeded from (scenario seed, cell index). Cells are the unit of
// parallelism: up to `threads` threads pull cells through the process-wide
// ThreadPool and write results into pre-sized slots, so the gathered
// SweepResult is ordered by cell index and bit-identical to a serial run (the
// determinism tests and the artifact byte-identity guarantee rest on this).
// The one exception is a non-zero per-cell deadline, which is inherently
// wall-clock-dependent — see SweepRunnerOptions::deadline_seconds.
//
// Per-cell wall times are recorded for reporting but are the only
// non-deterministic fields; the artifact writer excludes them by default.

#ifndef BUNDLEMINE_SCENARIO_SWEEP_RUNNER_H_
#define BUNDLEMINE_SCENARIO_SWEEP_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/solution.h"
#include "core/solve_context.h"
#include "data/generator.h"
#include "data/wtp_matrix.h"
#include "scenario/scenario_spec.h"

namespace bundlemine {

/// One grid cell: an assignment of one value per axis plus a method key.
struct SweepCell {
  int index = 0;                   ///< Position in the expanded grid.
  std::vector<double> axis_values; ///< Parallel to ScenarioSpec::axes.
  std::string method;
};

/// Everything one cell records.
struct SweepCellResult {
  SweepCell cell;
  double revenue = 0.0;
  double coverage = 0.0;  ///< revenue / total WTP at the cell's λ.
  /// Fractional gain over the "components" cell at the same axis point;
  /// meaningful only when `has_gain` (the spec lists "components").
  double gain_over_components = 0.0;
  bool has_gain = false;
  int num_offers = 0;
  int num_component_offers = 0;
  /// histogram[i] = number of offers of size i+1 (components included).
  std::vector<std::int64_t> bundle_size_histogram;
  SolveStats stats;
  /// Post-filter size of the dataset this cell solved against. Equals the
  /// sweep-level dataset summary unless the spec has dataset axes; written
  /// to artifacts only in that case.
  int num_users = 0;
  int num_items = 0;
  /// Per-iteration revenue trace of the cell's solve; captured only under
  /// SweepRunnerOptions::capture_traces (Figure 6 harness). Iteration
  /// revenues are deterministic; the per-iteration seconds are volatile and
  /// excluded from artifacts unless timings are requested.
  std::vector<IterationStat> trace;
  double wall_seconds = 0.0;  ///< Volatile; excluded from artifacts by default.
};

/// Ordered results of one sweep plus the dataset summary at the base λ.
struct SweepResult {
  ScenarioSpec spec;
  int num_users = 0;
  int num_items = 0;
  std::int64_t num_ratings = 0;
  double base_total_wtp = 0.0;
  std::vector<SweepCellResult> cells;
  double wall_seconds = 0.0;  ///< Volatile; excluded from artifacts by default.
};

struct SweepRunnerOptions {
  /// Width on the shared ThreadPool, across cells and inside each cell:
  /// the calling thread plus up to threads − 1 idle workers; <= 1 runs
  /// serially on the calling thread. Results are bit-identical at any
  /// width.
  int threads = 1;
  /// Per-cell wall-clock budget (0 = none); deadline-aware solvers return a
  /// valid partial configuration and flag stats.deadline_hit. A non-zero
  /// deadline makes cell results wall-clock-dependent and therefore voids
  /// the bit-identity guarantee — budgeted sweeps are for interactive
  /// exploration, not for golden artifacts.
  double deadline_seconds = 0.0;
  /// Record each cell's per-iteration revenue trace (SweepCellResult::trace).
  /// Trace revenues are deterministic, so captured artifacts stay
  /// byte-identical across thread counts.
  bool capture_traces = false;
  /// Called with (cell.index, context) after each cell's SolveContext is
  /// constructed, before the solve. Engine::Resolve attaches per-cell
  /// ResolveHints here. Cells run concurrently, so the hook must be
  /// thread-safe; it must not change anything that affects solve *results*
  /// (hints only redirect where identical numbers come from), or the
  /// bit-identity guarantee is lost.
  std::function<void(int, SolveContext&)> context_hook;
};

/// Expands the spec's (axis-value × method) grid in canonical order.
/// The spec must validate.
std::vector<SweepCell> ExpandGrid(const ScenarioSpec& spec);

/// Cells whose stable grid index lands in shard `shard_index` of
/// `shard_count` (index mod count). Complementary shards partition the grid:
/// the union over i in [0, n) of FilterShard(cells, i, n) is exactly
/// `cells`, so cluster jobs can split one grid and merge artifacts.
/// Requires 0 <= shard_index < shard_count.
std::vector<SweepCell> FilterShard(std::vector<SweepCell> cells,
                                   int shard_index, int shard_count);

/// Deterministic per-cell SolveContext seed (splitmix64 over scenario seed
/// and cell index); exposed for tests.
std::uint64_t CellSeed(std::uint64_t scenario_seed, int cell_index);

/// GeneratorConfig implied by a DatasetSpec: the named profile at the
/// spec's seed with the generator overrides (including num_users/num_items)
/// applied. The dataset a sweep materializes is a pure function of this
/// config plus the optional item_sample — DatasetKey() names exactly these
/// fields.
GeneratorConfig DatasetGeneratorConfig(const DatasetSpec& dataset);

/// Materializes the dataset a DatasetSpec names: generation from
/// DatasetGeneratorConfig, then the optional deterministic item subsample
/// (item_sample items drawn with an Rng seeded from (dataset seed, sample
/// size), clamped to the catalogue size; all users kept). Pure function of
/// the spec — the Engine's dataset cache and the sweep runner's per-cell
/// datasets both materialize through this.
RatingsDataset MaterializeDataset(const DatasetSpec& dataset);

/// DatasetSpec the cell solves against: the scenario's dataset with the
/// cell's dataset-axis values (num_users / num_items / item-sample) and
/// lambda applied. Identity (not equality) of DatasetKey(CellDatasetSpec(...))
/// decides which cells share a materialized dataset.
DatasetSpec CellDatasetSpec(const ScenarioSpec& spec, const SweepCell& cell);

/// Supplies (possibly cached) datasets to a sweep; the Engine plugs its
/// keyed dataset cache in here so per-cell regenerated datasets are shared
/// across sweeps. Must be a pure function of the spec (same spec → same
/// dataset contents) or determinism is lost.
using DatasetProvider =
    std::function<std::shared_ptr<const RatingsDataset>(const DatasetSpec&)>;

/// Supplies (possibly cached) WTP matrices: the matrix derived from
/// `dataset` (the materialization of the DatasetSpec) at the given λ. The
/// Engine plugs its λ-keyed WTP cache in here so repeated sweeps and solves
/// over the same (dataset, λ) pair derive the matrix once. Must be a pure
/// function of (spec, λ) — i.e. return exactly
/// WtpMatrix::FromRatings(dataset, λ) — or determinism is lost.
using WtpProvider = std::function<std::shared_ptr<const WtpMatrix>(
    const DatasetSpec&, const RatingsDataset&, double)>;

/// Recomputes gain_over_components for every cell of `result` from the
/// "components" cell at the same axis point (clearing gains whose baseline
/// cell is absent or earns nothing). The runner applies this after solving; the artifact
/// merger re-applies it after joining shard slices, which is what makes a
/// merged artifact byte-identical to the unsharded run.
void RecomputeComponentGains(SweepResult* result);

/// Runs `cells` — any subset of ExpandGrid(spec), e.g. one FilterShard
/// slice — against the pre-materialized base `dataset`, deriving the WTP
/// matrices the spec's λ values need. Cells under dataset axes solve
/// against their own regenerated datasets: each distinct
/// DatasetKey(CellDatasetSpec(...)) materializes once (through `provider`
/// when given — the Engine passes its cache — or locally otherwise) before
/// the parallel cell loop, so results stay thread-invariant. Results gather
/// in `cells` order; per-cell seeding depends only on the stable grid
/// index, so a shard's cells solve bit-identically to the same cells of a
/// full run. Gains fill from the "components" cell at the same axis point
/// when that cell is present in `cells`. Cells run on the shared ThreadPool
/// at width `options.threads`, next to any other jobs in the process.
/// `wtp_provider` (optional) serves the per-(dataset, λ) WTP matrices — the
/// Engine passes its λ-keyed cache. Each cell's SolveContext also runs at
/// width `options.threads`, so workers left idle by finished cells (or by a
/// grid narrower than the width) join the candidate evaluation of the cells
/// still running (results are bit-identical at any width, so this only
/// changes wall time).
SweepResult RunSweepCells(const ScenarioSpec& spec,
                          const std::vector<SweepCell>& cells,
                          const RatingsDataset& dataset,
                          const SweepRunnerOptions& options = {},
                          const DatasetProvider& provider = nullptr,
                          const WtpProvider& wtp_provider = nullptr);

}  // namespace bundlemine

#endif  // BUNDLEMINE_SCENARIO_SWEEP_RUNNER_H_
