// The three perfbench workloads and the metric sets they report.
//
// Every workload reports the same metric names, so runs compare across
// workloads and commits: the end-to-end set with tracing off, the per-layer
// set in a traced run. WORKLOADS.md maps each name to what it measures on
// each workload.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "api/engine.h"
#include "bench.h"
#include "replay.h"

namespace perfbench {

/// Setups repeated per run; setup_s is their median.
inline constexpr int kSetups = 11;

/// Generator seed of every dataset the workloads solve. The instances are
/// fixed because the generator's seed alone moves request time by ~20%;
/// --seed varies the request stream instead (WORKLOADS.md).
inline constexpr std::uint64_t kInstanceSeed = 7;

/// Two-delta batches the in-process workloads replay through a market.
inline constexpr int kMarketReplayBatches = 7;

/// The closed-loop request samples of one timed phase.
struct EndToEnd {
  double setup_s = 0.0;
  std::vector<double> latencies;  ///< Per completed request, seconds.
  double phase_s = 0.0;  ///< Phase start to the last completion.
  /// Peak RSS of the serving process; < 0 leaves it to the runner, which
  /// measures the benchmark process itself.
  double peak_rss_mb = -1.0;
};

/// Emits the end-to-end metrics (and their human-readable lines, under the
/// workload's own names for the request kind).
void AddEndToEnd(const EndToEnd& e2e, const char* kind, Report* report);

/// The per-layer metrics, one field per metric, in output order.
struct LayerMetrics {
  double data_generate_s = 0.0;
  double data_wtp_s = 0.0;
  RoundOneReplay round_one;
  MiningReplay mining;
  double core_solve_s = 0.0;
  std::int64_t core_pairs_evaluated = 0;
  std::int64_t core_rounds = 0;
  std::int64_t core_merges = 0;
  double core_thread_speedup = 0.0;
  double core_other_s = 0.0;
  double scenario_cell_max_s = 0.0;
  double scenario_cell_sum_s = 0.0;
  double scenario_imbalance = 0.0;
  double scenario_artifact_s = 0.0;
  std::int64_t scenario_artifact_bytes = 0;
  double api_dataset_hit_share = 0.0;
  double api_wtp_hit_share = 0.0;
  double api_resolve_hit_share = 0.0;
  double api_call_s = 0.0;
  double api_reuse_share = 0.0;
  MarketReplay market;
  double serve_parse_s = 0.0;
  double serve_encode_s = 0.0;
  std::int64_t serve_response_bytes = 0;
  double serve_wait_s = 0.0;
  std::int64_t serve_rejected = 0;
};

void AddPerLayer(const LayerMetrics& layers, Report* report);

/// Dataset set-up, repeated kSetups times: a fresh Engine materializes the
/// dataset (generation) and its WTP matrix is derived. Keeps the last
/// Engine, dataset and matrix.
struct DataSetup {
  double setup_s = 0.0;     ///< Median of generate + derive.
  double generate_s = 0.0;  ///< Median.
  double wtp_s = 0.0;       ///< Median.
  std::unique_ptr<bundlemine::Engine> engine;
  std::shared_ptr<const bundlemine::RatingsDataset> dataset;
  std::shared_ptr<const bundlemine::WtpMatrix> wtp;
};
DataSetup SetUpData(const bundlemine::DatasetSpec& spec,
                    const bundlemine::Engine::Options& engine_options,
                    Tracer* tracer);

/// Totals over the cells of one sweep or resolve.
struct CellTotals {
  double max_s = 0.0;  ///< Slowest cell's wall time.
  double sum_s = 0.0;  ///< Cell wall times summed.
  bundlemine::SolveStats stats;  ///< Counters summed over cells.
};
CellTotals Totals(const bundlemine::SweepResult& result);

/// Fills the api.*_hit_share metrics from an in-process Engine's caches.
void SetCacheShares(const bundlemine::Engine& engine, LayerMetrics* m);

/// Prints the tracing overhead of the timed phase: spans recorded there
/// times the measured cost of one span, against the phase's wall time.
void NoteTraceOverhead(std::size_t spans, double phase_s, Report* report);

/// Each returns false (after printing why) when the run cannot produce a
/// result; wrong or failed requests count in the report instead.
bool RunSolveMedium(const RunOptions& run, Tracer* tracer, Report* report);
bool RunSweepSmall(const RunOptions& run, Tracer* tracer, Report* report);
bool RunServeTenants(const RunOptions& run, Tracer* tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
