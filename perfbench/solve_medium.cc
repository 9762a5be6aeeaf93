// solve-medium: one closed-loop caller repeats Engine::Solve mixed-matching
// on the medium profile (θ = 0.05, 4 solver threads) with the dataset and
// WTP caches warm. The dense blossom matcher plus candidate pricing are
// nearly all of each request; greedy merging and mining do no work.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "util/strings.h"
#include "workloads.h"

namespace perfbench {

using namespace bundlemine;

namespace {

constexpr double kTheta = 0.05;
constexpr int kThreads = 4;

// The solve as bytes: the wire payload (offers, revenue, solve stats; no
// wall times), which is byte-identical at any thread count.
std::string SolveBytes(const SolveResponse& response) {
  return SolveResponseJson(WireEnvelope{}, response).Dump(0);
}

}  // namespace

bool RunSolveMedium(const RunOptions& run, Tracer* tracer, Report* report) {
  // --seed is the request's own RNG seed; the instance is fixed.
  DatasetSpec spec;
  spec.profile = "medium";
  spec.seed = kInstanceSeed;
  DataSetup setup = SetUpData(spec, Engine::Options{}, tracer);
  Engine& engine = *setup.engine;

  SolveRequest request;
  request.method = "mixed-matching";
  request.dataset = spec;
  request.theta = kTheta;
  request.options.seed = run.seed;

  // The one-thread reference; it also warms the WTP cache.
  request.options.threads = 1;
  const auto ref_start = std::chrono::steady_clock::now();
  StatusOr<SolveResponse> reference = [&] {
    ScopedSpan span(tracer, "reference.solve", -1);
    return engine.Solve(request);
  }();
  const double reference_s = SecondsSince(ref_start);
  if (!reference.ok()) {
    std::fprintf(stderr, "reference solve failed: %s\n",
                 reference.status().message().c_str());
    return false;
  }
  const std::string expected = SolveBytes(*reference);

  request.options.threads = kThreads;
  EndToEnd e2e;
  e2e.setup_s = setup.setup_s;
  std::vector<double> call_s;
  std::vector<double> solver_s;
  std::vector<double> serialize_s;
  SolveStats stats;
  const std::size_t spans_before = tracer->size();
  const auto phase_start = std::chrono::steady_clock::now();
  for (std::int64_t id = 0; SecondsSince(phase_start) < run.seconds; ++id) {
    ScopedSpan span(tracer, "request.solve", id);
    const auto start = std::chrono::steady_clock::now();
    StatusOr<SolveResponse> response = [&] {
      ScopedSpan call(tracer, "api.solve", id, span.id());
      return engine.Solve(request);
    }();
    call_s.push_back(SecondsSince(start));
    std::string bytes;
    if (response.ok()) {
      const auto serialize_start = std::chrono::steady_clock::now();
      ScopedSpan serialize(tracer, "scenario.serialize", id, span.id());
      bytes = SolveBytes(*response);
      serialize_s.push_back(SecondsSince(serialize_start));
      solver_s.push_back(response->wall_seconds);
      stats = response->stats;
    }
    e2e.latencies.push_back(SecondsSince(start));
    report->Attempt(response.ok() && bytes == expected);
  }
  e2e.phase_s = SecondsSince(phase_start);

  if (!run.trace) {
    AddEndToEnd(e2e, "solve", report);
    return true;
  }
  NoteTraceOverhead(tracer->size() - spans_before, e2e.phase_s, report);

  LayerMetrics m;
  m.data_generate_s = setup.generate_s;
  m.data_wtp_s = setup.wtp_s;
  {
    ScopedSpan replay(tracer, "replay", -1);
    m.round_one = ReplayRoundOne(*setup.wtp, kTheta, BundlingStrategy::kMixed,
                                 tracer, replay.id());
    m.mining = ReplayMining(*setup.wtp, tracer, replay.id());
    m.market = ReplayMarket(*setup.dataset, run.seed, kMarketReplayBatches,
                            tracer, replay.id());
  }
  m.core_solve_s = Median(solver_s);
  m.core_pairs_evaluated = stats.pairs_evaluated;
  m.core_rounds = stats.rounds;
  m.core_merges = stats.merges;
  m.api_call_s = Median(call_s);
  m.core_thread_speedup = reference_s / m.api_call_s;
  std::vector<double> other;
  for (std::size_t i = 0; i < solver_s.size(); ++i) {
    other.push_back(call_s[i] - solver_s[i]);
  }
  m.core_other_s = Median(other);
  // A solve is a single cell.
  m.scenario_cell_max_s = m.core_solve_s;
  m.scenario_cell_sum_s = m.core_solve_s;
  m.scenario_imbalance = 1.0;
  m.scenario_artifact_s = Median(serialize_s);
  m.scenario_artifact_bytes = static_cast<std::int64_t>(expected.size());
  SetCacheShares(engine, &m);
  m.api_reuse_share =
      Share(stats.pairs_reused, stats.pairs_reused + stats.pairs_evaluated);

  // No wire in-process: time the wire form of the same request and reply.
  const std::string line = StrFormat(
      "{\"kind\":\"solve\",\"method\":\"mixed-matching\",\"dataset\":{"
      "\"profile\":\"medium\",\"seed\":%llu,\"lambda\":1.25},\"theta\":0.05,"
      "\"options\":{\"threads\":%d,\"seed\":%llu}}",
      static_cast<unsigned long long>(kInstanceSeed), kThreads,
      static_cast<unsigned long long>(run.seed));
  m.serve_parse_s = MedianSeconds(201, [&] {
    ScopedSpan span(tracer, "serve.parse", -1);
    (void)ParseWireRequest(line);  // Timed for its cost alone.
  });
  m.serve_encode_s = MedianSeconds(5, [&] {
    ScopedSpan span(tracer, "serve.encode", -1);
    (void)SolveBytes(*reference);  // Timed for its cost alone.
  });
  m.serve_response_bytes = static_cast<std::int64_t>(expected.size());
  m.serve_wait_s = Median(e2e.latencies) - m.api_call_s - m.serve_parse_s -
                   m.serve_encode_s;

  report->Note(StrFormat(
      "baseline ratio: 1- vs %d-thread medium mixed-matching = %.3f s / "
      "%.3f s = %.3fx (core.thread_speedup)",
      kThreads, reference_s, m.api_call_s, m.core_thread_speedup));
  AddPerLayer(m, report);
  return true;
}

}  // namespace perfbench
