#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/check.h"
#include "util/strings.h"

namespace perfbench {

using namespace bundlemine;

void AddEndToEnd(const EndToEnd& e2e, const char* kind, Report* report) {
  const std::size_t n = e2e.latencies.size();
  double percentile = 0.0;
  const double p50 = Median(e2e.latencies);
  const double tail = Tail(e2e.latencies, &percentile);
  const double per_s =
      e2e.phase_s > 0.0 ? static_cast<double>(n) / e2e.phase_s : 0.0;
  report->Add("setup_s", e2e.setup_s, "s");
  report->Add("p50_s", p50, "s");
  report->Add("tail_s", tail, "s");
  report->Add("requests_per_s", per_s, "1/s");
  if (e2e.peak_rss_mb >= 0.0) report->Add("peak_rss_mb", e2e.peak_rss_mb, "MB");
  // Human-readable lines name each metric after the workload's request kind
  // (solve_p50_s, sweep_p50_s, resolve_p50_s, ...).
  const std::string k = kind;
  auto note = [report](const std::string& name, double value,
                       const char* unit, const std::string& detail) {
    report->Note(StrFormat("%-18s %12.4f %-4s %s", name.c_str(), value, unit,
                           detail.c_str()));
  };
  note("setup_s", e2e.setup_s, "s",
       StrFormat("n=%d (median of %d set-ups)", kSetups, kSetups));
  note(k + "_p50_s", p50, "s", StrFormat("n=%zu", n));
  note(k + "_tail_s", tail, "s",
       StrFormat("n=%zu, p%.0f (%s)", n, percentile,
                 n >= 11 ? "10 samples beyond it"
                         : "max: fewer than 11 samples"));
  note(k + "s_per_s", per_s, "1/s",
       StrFormat("n=%zu over %.2f s", n, e2e.phase_s));
  if (e2e.peak_rss_mb >= 0.0) {
    note("peak_rss_mb", e2e.peak_rss_mb, "MB", "n=1 (daemon, reaped by wait4)");
  }
}

void AddPerLayer(const LayerMetrics& m, Report* report) {
  const RoundOneReplay& r = m.round_one;
  report->Add("data.generate_s", m.data_generate_s, "s");
  report->Add("data.wtp_s", m.data_wtp_s, "s");
  report->Add("data.coint_pairs", static_cast<double>(r.coint_pairs), "count");
  report->Add("data.coint_pairs_s", r.coint_pairs_s, "s");
  report->Add("pricing.singleton_s", r.singleton_s, "s");
  report->Add("pricing.pairs", static_cast<double>(r.coint_pairs), "count");
  report->Add("pricing.pair_s", r.pair_s, "s");
  report->Add("pricing.ns_per_pair",
              r.coint_pairs > 0
                  ? 1e9 * r.pair_s / static_cast<double>(r.coint_pairs)
                  : 0.0,
              "ns");
  report->Add("pricing.gain_share", Share(r.positive_pairs, r.coint_pairs),
              "share");
  report->Add("matching.vertices", r.vertices, "count");
  report->Add("matching.edges", static_cast<double>(r.positive_pairs), "count");
  report->Add("matching.solve_s", r.matching_s, "s");
  report->Add("mining.txdb_s", m.mining.txdb_s, "s");
  report->Add("mining.mafia_s", m.mining.mafia_s, "s");
  report->Add("mining.itemsets", static_cast<double>(m.mining.itemsets),
              "count");
  report->Add("core.solve_s", m.core_solve_s, "s");
  report->Add("core.pairs_evaluated",
              static_cast<double>(m.core_pairs_evaluated), "count");
  report->Add("core.rounds", static_cast<double>(m.core_rounds), "count");
  report->Add("core.merges", static_cast<double>(m.core_merges), "count");
  report->Add("core.thread_speedup", m.core_thread_speedup, "x");
  report->Add("core.other_s", m.core_other_s, "s");
  report->Add("scenario.cell_max_s", m.scenario_cell_max_s, "s");
  report->Add("scenario.cell_sum_s", m.scenario_cell_sum_s, "s");
  report->Add("scenario.imbalance", m.scenario_imbalance, "x");
  report->Add("scenario.artifact_s", m.scenario_artifact_s, "s");
  report->Add("scenario.artifact_bytes",
              static_cast<double>(m.scenario_artifact_bytes), "bytes");
  report->Add("api.dataset_hit_share", m.api_dataset_hit_share, "share");
  report->Add("api.wtp_hit_share", m.api_wtp_hit_share, "share");
  report->Add("api.resolve_hit_share", m.api_resolve_hit_share, "share");
  report->Add("api.call_s", m.api_call_s, "s");
  report->Add("api.reuse_share", m.api_reuse_share, "share");
  report->Add("market.apply_s", m.market.apply_s, "s");
  report->Add("market.snapshot_s", m.market.snapshot_s, "s");
  report->Add("market.dirty_items", m.market.dirty_items, "count");
  report->Add("serve.parse_s", m.serve_parse_s, "s");
  report->Add("serve.encode_s", m.serve_encode_s, "s");
  report->Add("serve.response_bytes",
              static_cast<double>(m.serve_response_bytes), "bytes");
  report->Add("serve.wait_s", m.serve_wait_s, "s");
  report->Add("serve.rejected", static_cast<double>(m.serve_rejected),
              "count");
}

DataSetup SetUpData(const DatasetSpec& spec,
                    const Engine::Options& engine_options, Tracer* tracer) {
  DataSetup out;
  std::vector<double> generate;
  std::vector<double> derive;
  std::vector<double> total;
  for (int s = 0; s < kSetups; ++s) {
    ScopedSpan setup(tracer, "setup", s);
    auto engine = std::make_unique<Engine>(engine_options);
    const auto start = std::chrono::steady_clock::now();
    StatusOr<std::shared_ptr<const RatingsDataset>> dataset = [&] {
      ScopedSpan span(tracer, "data.generate", s, setup.id());
      return engine->Dataset(spec);
    }();
    BM_CHECK(dataset.ok());
    generate.push_back(SecondsSince(start));
    const auto derive_start = std::chrono::steady_clock::now();
    std::shared_ptr<const WtpMatrix> wtp;
    {
      ScopedSpan span(tracer, "data.wtp", s, setup.id());
      wtp = std::make_shared<const WtpMatrix>(
          WtpMatrix::FromRatings(**dataset, spec.lambda));
    }
    derive.push_back(SecondsSince(derive_start));
    total.push_back(SecondsSince(start));
    out.engine = std::move(engine);
    out.dataset = *dataset;
    out.wtp = std::move(wtp);
  }
  out.setup_s = Median(total);
  out.generate_s = Median(generate);
  out.wtp_s = Median(derive);
  return out;
}

CellTotals Totals(const SweepResult& result) {
  CellTotals t;
  for (const SweepCellResult& cell : result.cells) {
    t.max_s = std::max(t.max_s, cell.wall_seconds);
    t.sum_s += cell.wall_seconds;
    t.stats.pairs_evaluated += cell.stats.pairs_evaluated;
    t.stats.pairs_reused += cell.stats.pairs_reused;
    t.stats.rounds += cell.stats.rounds;
    t.stats.merges += cell.stats.merges;
  }
  return t;
}

void SetCacheShares(const Engine& engine, LayerMetrics* m) {
  const Engine::CacheStats datasets = engine.dataset_cache_stats();
  const Engine::CacheStats wtps = engine.wtp_cache_stats();
  const Engine::CacheStats resolves = engine.resolve_cache_stats();
  m->api_dataset_hit_share =
      Share(datasets.hits, datasets.hits + datasets.misses);
  m->api_wtp_hit_share = Share(wtps.hits, wtps.hits + wtps.misses);
  m->api_resolve_hit_share =
      Share(resolves.hits, resolves.hits + resolves.misses);
}

void NoteTraceOverhead(std::size_t spans, double phase_s, Report* report) {
  const double per_span = Tracer::CostPerSpanSeconds();
  const double cost = per_span * static_cast<double>(spans);
  report->Note(StrFormat(
      "trace overhead: %zu spans in the timed phase x %.3f us = %.6f s "
      "(%.5f%% of its %.2f s)",
      spans, per_span * 1e6, cost, phase_s > 0 ? 100.0 * cost / phase_s : 0.0,
      phase_s));
}

}  // namespace perfbench
