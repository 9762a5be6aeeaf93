// sweep-small: one closed-loop caller repeats Engine::Sweep plus the sweep
// artifact on the small profile: components, mixed-greedy, pure-freq and
// mixed-freq over θ = {0, 0.05, 0.1}, 12 cells on 4 workers. Greedy merging,
// sparse-path pricing, MAFIA mining and artifact serialization carry it;
// the matcher does no work.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "scenario/artifact_writer.h"
#include "serve/protocol.h"
#include "util/strings.h"
#include "workloads.h"

namespace perfbench {

using namespace bundlemine;

namespace {

constexpr int kWorkers = 4;
// Untraced runs check one third of the grid against a one-thread sweep;
// --seed picks which third, so the seeds of a series cover every cell. The
// traced run checks the whole grid and times it for core.thread_speedup.
constexpr int kReferenceShards = 3;

std::string SpecText() {
  return StrFormat(
      "name=sweep-small;scale=small;seed=%llu;"
      "methods=components,mixed-greedy,pure-freq,mixed-freq;"
      "axis:theta=0,0.05,0.1",
      static_cast<unsigned long long>(kInstanceSeed));
}

// The artifact of the cells of `result` in shard `shard` of `count`, with
// gains recomputed within the shard — equal, byte for byte, to the artifact
// of a sweep of that shard alone.
std::string ShardArtifact(const SweepResult& result, int shard, int count) {
  SweepResult part = result;
  part.cells.clear();
  for (const SweepCellResult& cell : result.cells) {
    if (cell.cell.index % count == shard) part.cells.push_back(cell);
  }
  RecomputeComponentGains(&part);
  return SweepArtifactJson(part);
}

}  // namespace

bool RunSweepSmall(const RunOptions& run, Tracer* tracer, Report* report) {
  std::string error;
  const std::string spec_text = SpecText();
  std::optional<ScenarioSpec> spec = ParseScenarioSpec(spec_text, &error);
  if (!spec.has_value()) {
    std::fprintf(stderr, "bad sweep spec: %s\n", error.c_str());
    return false;
  }
  DataSetup setup = SetUpData(spec->dataset, Engine::Options{}, tracer);
  Engine& engine = *setup.engine;

  SweepRequest request;
  request.spec = *spec;

  // The one-thread reference; it also warms the WTP cache.
  request.options.threads = 1;
  const int shards = run.trace ? 1 : kReferenceShards;
  const int shard = static_cast<int>(run.seed % static_cast<std::uint64_t>(shards));
  request.shard_index = shard;
  request.shard_count = shards;
  const auto ref_start = std::chrono::steady_clock::now();
  StatusOr<SweepResponse> reference = [&] {
    ScopedSpan span(tracer, "reference.sweep", -1);
    return engine.Sweep(request);
  }();
  const double reference_s = SecondsSince(ref_start);
  if (!reference.ok()) {
    std::fprintf(stderr, "reference sweep failed: %s\n",
                 reference.status().message().c_str());
    return false;
  }
  const std::string expected_shard =
      ShardArtifact(reference->result, shard, shards);

  request.options.threads = kWorkers;
  request.shard_index = 0;
  request.shard_count = 1;
  EndToEnd e2e;
  e2e.setup_s = setup.setup_s;
  std::string first_artifact;
  std::vector<double> call_s;
  std::vector<double> artifact_s;
  std::vector<double> cell_max;
  std::vector<double> cell_sum;
  SolveStats totals;
  std::size_t cells = 0;
  std::string last_response;
  const std::size_t spans_before = tracer->size();
  const auto phase_start = std::chrono::steady_clock::now();
  for (std::int64_t id = 0; SecondsSince(phase_start) < run.seconds; ++id) {
    ScopedSpan span(tracer, "request.sweep", id);
    const auto start = std::chrono::steady_clock::now();
    StatusOr<SweepResponse> response = [&] {
      ScopedSpan call(tracer, "api.sweep", id, span.id());
      return engine.Sweep(request);
    }();
    call_s.push_back(SecondsSince(start));
    bool ok = response.ok();
    if (ok) {
      const auto artifact_start = std::chrono::steady_clock::now();
      std::string artifact;
      {
        ScopedSpan serialize(tracer, "scenario.artifact", id, span.id());
        artifact = SweepArtifactJson(response->result);
      }
      artifact_s.push_back(SecondsSince(artifact_start));
      if (first_artifact.empty()) first_artifact = artifact;
      ok = artifact == first_artifact &&
           ShardArtifact(response->result, shard, shards) == expected_shard;
      const CellTotals pass = Totals(response->result);
      cell_max.push_back(pass.max_s);
      cell_sum.push_back(pass.sum_s);
      totals = pass.stats;
      cells = response->result.cells.size();
      if (run.trace && last_response.empty()) {
        last_response = SweepResponseJson(WireEnvelope{}, *response).Dump(0);
      }
    }
    e2e.latencies.push_back(SecondsSince(start));
    report->Attempt(ok);
  }
  e2e.phase_s = SecondsSince(phase_start);

  if (!run.trace) {
    AddEndToEnd(e2e, "sweep", report);
    return true;
  }
  NoteTraceOverhead(tracer->size() - spans_before, e2e.phase_s, report);

  LayerMetrics m;
  m.data_generate_s = setup.generate_s;
  m.data_wtp_s = setup.wtp_s;
  {
    ScopedSpan replay(tracer, "replay", -1);
    // mixed-greedy's strategy at the grid's middle θ.
    m.round_one = ReplayRoundOne(*setup.wtp, 0.05, BundlingStrategy::kMixed,
                                 tracer, replay.id());
    m.mining = ReplayMining(*setup.wtp, tracer, replay.id());
    m.market = ReplayMarket(*setup.dataset, run.seed, kMarketReplayBatches,
                            tracer, replay.id());
  }
  m.core_solve_s = Median(cell_sum);
  m.core_pairs_evaluated = totals.pairs_evaluated;
  m.core_rounds = totals.rounds;
  m.core_merges = totals.merges;
  m.api_call_s = Median(call_s);
  m.core_thread_speedup = reference_s / m.api_call_s;
  std::vector<double> other;
  for (std::size_t i = 0; i < cell_max.size(); ++i) {
    other.push_back(call_s[i] - cell_max[i]);
  }
  m.core_other_s = Median(other);
  m.scenario_cell_max_s = Median(cell_max);
  m.scenario_cell_sum_s = Median(cell_sum);
  // 1 when the cells split evenly over the workers; higher when the
  // slowest cell outlasts an even share of the total.
  m.scenario_imbalance =
      m.scenario_cell_max_s *
      static_cast<double>(std::min<std::size_t>(cells, kWorkers)) /
      m.scenario_cell_sum_s;
  m.scenario_artifact_s = Median(artifact_s);
  m.scenario_artifact_bytes = static_cast<std::int64_t>(first_artifact.size());
  SetCacheShares(engine, &m);
  m.api_reuse_share = Share(totals.pairs_reused,
                            totals.pairs_reused + totals.pairs_evaluated);

  // No wire in-process: time the wire form of the same request and reply.
  const std::string line =
      "{\"kind\":\"sweep\",\"spec\":\"" + spec_text +
      "\",\"options\":{\"threads\":" + std::to_string(kWorkers) + "}}";
  m.serve_parse_s = MedianSeconds(201, [&] {
    ScopedSpan span(tracer, "serve.parse", -1);
    (void)ParseWireRequest(line);  // Timed for its cost alone.
  });
  m.serve_encode_s = MedianSeconds(5, [&] {
    ScopedSpan span(tracer, "serve.encode", -1);
    // Timed for its cost alone.
    (void)SweepResponseJson(WireEnvelope{}, *reference).Dump(0);
  });
  m.serve_response_bytes = static_cast<std::int64_t>(last_response.size());
  m.serve_wait_s = Median(e2e.latencies) - m.api_call_s - m.serve_parse_s -
                   m.serve_encode_s;

  report->Note(StrFormat(
      "one-thread sweep %.3f s vs %d workers %.3f s = %.3fx "
      "(core.thread_speedup)",
      reference_s, kWorkers, m.api_call_s, m.core_thread_speedup));
  AddPerLayer(m, report);
  return true;
}

}  // namespace perfbench
