// Engine facade tests: Status-based error paths (no aborts on user input),
// dataset/WTP/itemset-cache hit behavior, batch determinism, concurrent
// requests on the shared pool, shard partition identity, and the golden
// tiny-theta artifact flowing byte-identically through the new API —
// including the artifact reader's write→read→write round trip.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/engine.h"
#include "core/bundler_registry.h"
#include "core/resolve_hints.h"
#include "core/solve_context.h"
#include "data/generator.h"
#include "data/wtp_matrix.h"
#include "gtest/gtest.h"
#include "market/market_delta.h"
#include "market/market_stream.h"
#include "scenario/artifact_reader.h"
#include "scenario/artifact_writer.h"
#include "scenario/scenario_spec.h"

namespace bundlemine {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The cheap, fully deterministic sweep the cache/shard tests reuse.
ScenarioSpec TinyThetaSpec() {
  ScenarioSpec spec;
  spec.name = "engine-test-tiny";
  spec.dataset.profile = "tiny";
  spec.dataset.seed = 7;
  spec.methods = {"components", "mixed-greedy"};
  spec.axes.push_back({AxisKind::kTheta, {-0.05, 0.0, 0.05}});
  return spec;
}

// ---------------------------------------------------------------------------
// Error paths: typed statuses listing the valid alternatives, never aborts.
// ---------------------------------------------------------------------------

TEST(EngineErrors, UnknownMethodKeyListsAlternatives) {
  Engine engine;
  WtpMatrix wtp = WtpMatrix::FromTriplets(2, 2, {{0, 0, 5.0}, {1, 1, 3.0}});
  BundleConfigProblem problem;
  problem.wtp = &wtp;

  SolveRequest request;
  request.method = "no-such-method";
  request.problem = &problem;
  StatusOr<SolveResponse> response = engine.Solve(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
  EXPECT_NE(response.status().message().find("no-such-method"),
            std::string::npos);
  EXPECT_NE(response.status().message().find("mixed-matching"),
            std::string::npos);
}

TEST(EngineErrors, RequestWithoutProblemOrDatasetRejected) {
  Engine engine;
  SolveRequest request;
  request.method = "components";
  StatusOr<SolveResponse> response = engine.Solve(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineErrors, UnknownDatasetProfileListsProfiles) {
  Engine engine;
  SolveRequest request;
  request.method = "components";
  request.dataset = DatasetSpec{};
  request.dataset->profile = "galactic";
  StatusOr<SolveResponse> response = engine.Solve(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status().message().find("galactic"), std::string::npos);
  EXPECT_NE(response.status().message().find("tiny"), std::string::npos);
}

TEST(EngineErrors, SweepWithUnknownMethodSurfacesStatusNotAbort) {
  Engine engine;
  SweepRequest request;
  request.spec = TinyThetaSpec();
  request.spec.methods.push_back("definitely-not-registered");
  StatusOr<SweepResponse> response = engine.Sweep(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status().message().find("definitely-not-registered"),
            std::string::npos);
  // The method key list rides along for self-serve fixes.
  EXPECT_NE(response.status().message().find("mixed-matching"),
            std::string::npos);
}

TEST(EngineErrors, BadShardRangeRejected) {
  Engine engine;
  SweepRequest request;
  request.spec = TinyThetaSpec();
  for (auto [index, count] : {std::pair<int, int>{2, 2},
                              std::pair<int, int>{-1, 2},
                              std::pair<int, int>{0, 0}}) {
    request.shard_index = index;
    request.shard_count = count;
    StatusOr<SweepResponse> response = engine.Sweep(request);
    ASSERT_FALSE(response.ok()) << index << "/" << count;
    EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  }
}

// The set-packing methods enumerate all 2^N bundles; a dataset above a
// method's item limit is the request's fault, on every request path.
TEST(EngineErrors, ItemLimitsAreTypedErrorsOnEveryPath) {
  Engine engine;
  auto expect_limit = [](const Status& status, const std::string& needle) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(needle), std::string::npos)
        << status.message();
  };

  DatasetSpec tiny;
  tiny.profile = "tiny";
  tiny.seed = 7;
  std::shared_ptr<const RatingsDataset> tiny_data = *engine.Dataset(tiny);
  const int tiny_items = tiny_data->num_items();
  SolveRequest solve;
  solve.method = "greedy-wsp";
  solve.dataset = tiny;
  ASSERT_GT(tiny_items, 25);
  expect_limit(engine.Solve(solve).status(),
               "method 'greedy-wsp' takes at most 25 items; the dataset has " +
                   std::to_string(tiny_items));

  std::vector<std::tuple<UserId, ItemId, double>> triplets;
  for (int i = 0; i < 21; ++i) triplets.emplace_back(0, i, 1.0);
  WtpMatrix wtp = WtpMatrix::FromTriplets(1, 21, triplets);
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  solve.method = "optimal-wsp";
  solve.dataset.reset();
  solve.problem = &problem;
  expect_limit(engine.Solve(solve).status(),
               "'optimal-wsp' takes at most 20 items; the dataset has 21");

  // Every shard of the grid refuses, whichever cells it holds.
  SweepRequest sweep;
  sweep.spec = TinyThetaSpec();
  sweep.spec.methods = {"components", "optimal-wsp"};
  for (int shard = 0; shard < 2; ++shard) {
    sweep.shard_index = shard;
    sweep.shard_count = 2;
    expect_limit(engine.Sweep(sweep).status(), "'optimal-wsp' takes at most 20");
  }
  sweep.shard_count = 1;
  sweep.shard_index = 0;
  sweep.spec.dataset.item_sample = 12;
  sweep.spec.methods = {"optimal-wsp", "greedy-wsp-avg"};
  sweep.spec.axes = {{AxisKind::kTheta, {0.0}}};
  StatusOr<SweepResponse> sampled = engine.Sweep(sweep);
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
  EXPECT_EQ(sampled->result.cells.size(), 2u);

  MarketStream market("wsp");
  ASSERT_TRUE(market.Load(*tiny_data).ok());
  ResolveRequest resolve;
  resolve.market = &market;
  resolve.spec = TinyThetaSpec();
  resolve.spec.methods = {"greedy-wsp-avg"};
  expect_limit(engine.Resolve(resolve).status(),
               "'greedy-wsp-avg' takes at most 25 items");
}

TEST(ValidateMethodKeyFn, AcceptsRegisteredRejectsUnknown) {
  EXPECT_TRUE(ValidateMethodKey("mixed-matching").ok());
  Status status = ValidateMethodKey("typo");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("typo"), std::string::npos);
}

TEST(ParseShardFn, ParsesAndRejects) {
  StatusOr<std::pair<int, int>> ok = ParseShard("1/4");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->first, 1);
  EXPECT_EQ(ok->second, 4);
  for (const char* bad :
       {"", "2", "2/2", "-1/3", "a/b", "1/0", "0/4294967297"}) {
    EXPECT_FALSE(ParseShard(bad).ok()) << bad;
  }
}

// ---------------------------------------------------------------------------
// Scenario resolution: presets, inline text, @file.
// ---------------------------------------------------------------------------

TEST(ResolveSpec, PresetByName) {
  StatusOr<ScenarioSpec> spec = ResolveScenarioSpec("fig2-theta");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "fig2-theta");
}

TEST(ResolveSpec, UnknownPresetListsPresets) {
  StatusOr<ScenarioSpec> spec = ResolveScenarioSpec("fig2-thta");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kNotFound);
  EXPECT_NE(spec.status().message().find("fig2-theta"), std::string::npos);
}

TEST(ResolveSpec, InlineTextParsesAndValidates) {
  StatusOr<ScenarioSpec> spec = ResolveScenarioSpec(
      "scale=tiny;seed=3;methods=components;axis:k=2,3");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "adhoc");
  EXPECT_EQ(spec->dataset.seed, 3u);

  StatusOr<ScenarioSpec> bad = ResolveScenarioSpec("axis:bogus=1,2");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("bogus"), std::string::npos);
}

TEST(ResolveSpec, SpecFromFile) {
  const std::string path = TempPath("bundlemine_engine_test.scenario");
  {
    std::ofstream out(path, std::ios::trunc);
    out << FormatScenarioSpec(TinyThetaSpec());
  }
  StatusOr<ScenarioSpec> spec = ResolveScenarioSpec("@" + path);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "engine-test-tiny");
  ASSERT_EQ(spec->axes.size(), 1u);
  EXPECT_EQ(spec->axes[0].values.size(), 3u);
  std::filesystem::remove(path);

  StatusOr<ScenarioSpec> missing = ResolveScenarioSpec("@" + path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find(path), std::string::npos);
}

TEST(ResolveSpec, UnparsableFileNamesTheFile) {
  const std::string path = TempPath("bundlemine_engine_test_bad.scenario");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "frobnicate=1\n";
  }
  StatusOr<ScenarioSpec> spec = ResolveScenarioSpec("@" + path);
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(spec.status().message().find(path), std::string::npos);
  EXPECT_NE(spec.status().message().find("frobnicate"), std::string::npos);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Dataset cache.
// ---------------------------------------------------------------------------

TEST(DatasetCache, SecondSweepHitsAndStaysByteIdentical) {
  Engine engine;
  SweepRequest request;
  request.spec = TinyThetaSpec();

  StatusOr<SweepResponse> first = engine.Sweep(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->dataset_cache_hit);

  StatusOr<SweepResponse> second = engine.Sweep(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->dataset_cache_hit);

  Engine::CacheStats stats = engine.dataset_cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.entries, 1u);

  EXPECT_EQ(SweepArtifactJson(first->result), SweepArtifactJson(second->result));
}

TEST(WtpCache, SecondSweepHitsAndSolveSharesEntries) {
  Engine engine;
  SweepRequest request;
  request.spec = TinyThetaSpec();

  StatusOr<SweepResponse> first = engine.Sweep(request);
  ASSERT_TRUE(first.ok());
  Engine::CacheStats stats = engine.wtp_cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.entries, 1u);

  // The second sweep derives nothing: one λ-keyed hit, same artifact bytes.
  StatusOr<SweepResponse> second = engine.Sweep(request);
  ASSERT_TRUE(second.ok());
  stats = engine.wtp_cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(SweepArtifactJson(first->result), SweepArtifactJson(second->result));

  // A solve at the sweep's (dataset, λ) reuses the cached matrix; a solve
  // at a different λ derives (and caches) its own.
  SolveRequest solve;
  solve.method = "mixed-matching";
  solve.dataset = request.spec.dataset;
  ASSERT_TRUE(engine.Solve(solve).ok());
  stats = engine.wtp_cache_stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 1);

  solve.dataset->lambda = request.spec.dataset.lambda + 0.5;
  ASSERT_TRUE(engine.Solve(solve).ok());
  stats = engine.wtp_cache_stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.entries, 2u);
}

// ---------------------------------------------------------------------------
// Mined-itemset cache: freq cells over one dataset share one mine.
// ---------------------------------------------------------------------------

StatusOr<SweepResponse> FreqSweep(Engine& engine, const std::string& methods) {
  SweepRequest request;
  request.spec = *ResolveScenarioSpec("scale=tiny;seed=7;methods=" + methods +
                                      ";axis:theta=0,0.05,0.1");
  request.options.threads = 4;
  return engine.Sweep(request);
}

TEST(ItemsetCache, FreqSweepMinesOnceAndMatchesUncachedBytes) {
  Engine engine;
  StatusOr<SweepResponse> cached = FreqSweep(engine, "pure-freq,mixed-freq");
  ASSERT_TRUE(cached.ok()) << cached.status().message();
  Engine::CacheStats stats = engine.itemset_cache_stats();
  EXPECT_EQ(stats.misses, 1);  // One mine for all six cells.
  EXPECT_EQ(stats.hits, 5);
  EXPECT_EQ(stats.entries, 1u);

  // wtp_cache_capacity also bounds the itemset cache: at 0 every cell mines.
  Engine::Options options;
  options.wtp_cache_capacity = 0;
  Engine uncached(options);
  StatusOr<SweepResponse> fresh = FreqSweep(uncached, "pure-freq,mixed-freq");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(uncached.itemset_cache_stats().misses, 6);
  EXPECT_EQ(uncached.itemset_cache_stats().entries, 0u);
  EXPECT_EQ(SweepArtifactJson(cached->result),
            SweepArtifactJson(fresh->result));

  // A repeated sweep mines nothing.
  ASSERT_TRUE(FreqSweep(engine, "pure-freq,mixed-freq").ok());
  stats = engine.itemset_cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 11);
}

TEST(ItemsetCache, SweepSmallGridOnAColdEngineMinesOnce) {
  // perfbench's sweep-small grid (its methods × θ), on tiny data.
  Engine engine;
  ASSERT_TRUE(
      FreqSweep(engine, "components,mixed-greedy,pure-freq,mixed-freq").ok());
  Engine::CacheStats stats = engine.itemset_cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 5);

  // A solve from the same dataset reference borrows the sweep's mine.
  SolveRequest solve;
  solve.method = "pure-freq";
  solve.dataset = TinyThetaSpec().dataset;
  solve.theta = 0.2;
  ASSERT_TRUE(engine.Solve(solve).ok());
  EXPECT_EQ(engine.itemset_cache_stats().hits, 6);
}

TEST(ItemsetCache, DeadlineStoppedMineIsNotCached) {
  Engine engine;
  SolveRequest solve;
  solve.method = "pure-freq";
  solve.dataset = TinyThetaSpec().dataset;
  solve.options.deadline_seconds = 1e-9;
  StatusOr<SolveResponse> stopped = engine.Solve(solve);
  ASSERT_TRUE(stopped.ok());
  EXPECT_TRUE(stopped->stats.deadline_hit);
  // A deadline-bound solve mines on its own and shares nothing.
  EXPECT_EQ(engine.itemset_cache_stats().misses, 0);
  EXPECT_EQ(engine.itemset_cache_stats().entries, 0u);

  // The next solve mines in full, and only that mine is shared.
  solve.options.deadline_seconds = 0.0;
  StatusOr<SolveResponse> full = engine.Solve(solve);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->stats.deadline_hit);
  EXPECT_EQ(engine.itemset_cache_stats().misses, 1);
  EXPECT_EQ(engine.itemset_cache_stats().entries, 1u);
  StatusOr<SolveResponse> again = engine.Solve(solve);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(engine.itemset_cache_stats().hits, 1);
  EXPECT_EQ(again->solution.total_revenue, full->solution.total_revenue);
}

TEST(ItemsetCache, DeadlineSolveNeverWaitsOnAnInFlightMine) {
  // Another request's unbounded mine of the same transactions is in flight:
  // the shared source holds every asker until the test releases it. A
  // deadline-bound freq solve must not ask, so it returns on its own.
  RatingsDataset dataset = GenerateAmazonLike(TinyProfile(7));
  WtpMatrix wtp = WtpMatrix::FromRatings(dataset, 1.25);
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  problem.theta = 0.05;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> asked{false};
  ResolveHints hints;
  hints.itemsets = [&](int, const ItemsetMiner& mine) {
    asked = true;
    released.wait();
    return mine();
  };
  SolveContext::Options options;
  options.deadline_seconds = 600.0;  // Bounded, but never reached.
  SolveContext context(options);
  context.set_resolve_hints(&hints);
  std::future<BundleSolution> solving = std::async(std::launch::async, [&] {
    return SolveMethod("pure-freq", problem, context);
  });
  const bool returned =
      solving.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  release.set_value();
  EXPECT_TRUE(returned);
  EXPECT_FALSE(asked.load());
  EXPECT_EQ(solving.get().total_revenue,
            SolveMethod("pure-freq", problem).total_revenue);
}

TEST(DatasetCache, KeyCoversSeedAndOverridesButNotLambda) {
  DatasetSpec base;
  base.profile = "tiny";
  base.seed = 7;

  DatasetSpec other_seed = base;
  other_seed.seed = 8;
  EXPECT_NE(DatasetCacheKey(base), DatasetCacheKey(other_seed));

  DatasetSpec with_override = base;
  with_override.activity_sigma = 1.1;
  EXPECT_NE(DatasetCacheKey(base), DatasetCacheKey(with_override));

  DatasetSpec other_lambda = base;
  other_lambda.lambda = 2.0;  // WTP derivation is per-request.
  EXPECT_EQ(DatasetCacheKey(base), DatasetCacheKey(other_lambda));

  DatasetSpec scaled = base;
  scaled.num_users = 160;  // Dataset-axis overrides are distinct datasets.
  EXPECT_NE(DatasetCacheKey(base), DatasetCacheKey(scaled));

  DatasetSpec sampled = base;
  sampled.item_sample = 20;
  EXPECT_NE(DatasetCacheKey(base), DatasetCacheKey(sampled));
}

TEST(DatasetCache, DatasetAxisSweepPopulatesAndReusesCache) {
  Engine engine;
  SweepRequest request;
  request.spec.name = "dataset-axis-cache";
  request.spec.dataset.profile = "tiny";
  request.spec.dataset.seed = 7;
  request.spec.methods = {"components", "pure-greedy"};
  request.spec.axes.push_back({AxisKind::kNumUsers, {160, 220}});

  StatusOr<SweepResponse> first = engine.Sweep(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // Base dataset + one regenerated dataset per axis point (the base-sized
  // point carries an explicit override, so it keys separately).
  Engine::CacheStats stats = engine.dataset_cache_stats();
  EXPECT_EQ(stats.entries, 3u);
  // Each cell's own post-filter population lands in the artifact.
  std::string json = SweepArtifactJson(first->result);
  EXPECT_NE(json.find("\"dataset\": {"), std::string::npos);

  StatusOr<SweepResponse> second = engine.Sweep(request);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine.dataset_cache_stats().entries, 3u);
  EXPECT_GT(engine.dataset_cache_stats().hits, stats.hits);
  EXPECT_EQ(SweepArtifactJson(second->result), json);
}

TEST(TraceCapture, SweepRecordsDeterministicTraces) {
  Engine engine;
  SweepRequest request;
  request.spec.name = "trace-capture";
  request.spec.dataset.profile = "tiny";
  request.spec.dataset.seed = 7;
  request.spec.methods = {"mixed-greedy"};
  request.spec.axes.push_back({AxisKind::kTheta, {0.0}});
  request.capture_traces = true;

  StatusOr<SweepResponse> response = engine.Sweep(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->result.cells.size(), 1u);
  const std::vector<IterationStat>& trace = response->result.cells[0].trace;
  ASSERT_FALSE(trace.empty());
  // The trace ends at the cell's final revenue and round-trips through the
  // artifact (revenues only; seconds are volatile and excluded).
  EXPECT_DOUBLE_EQ(trace.back().total_revenue, response->result.cells[0].revenue);
  std::string json = SweepArtifactJson(response->result);
  EXPECT_NE(json.find("\"trace\": ["), std::string::npos);
  EXPECT_EQ(json.find("seconds"), std::string::npos);
  StatusOr<SweepResult> parsed = ParseSweepArtifact(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SweepArtifactJson(*parsed), json);
}

TEST(DatasetCache, SolveFromDatasetReferenceMatchesManualPipeline) {
  Engine engine;
  SolveRequest request;
  request.method = "mixed-greedy";
  request.dataset = DatasetSpec{};
  request.dataset->profile = "tiny";
  request.dataset->seed = 11;
  request.dataset->lambda = 1.25;
  request.theta = 0.05;

  StatusOr<SolveResponse> via_engine = engine.Solve(request);
  ASSERT_TRUE(via_engine.ok());

  RatingsDataset dataset = GenerateAmazonLike(TinyProfile(11));
  WtpMatrix wtp = WtpMatrix::FromRatings(dataset, 1.25);
  BundleConfigProblem problem;
  problem.wtp = &wtp;
  problem.theta = 0.05;
  BundleSolution manual = SolveMethod("mixed-greedy", problem);

  EXPECT_EQ(via_engine->solution.total_revenue, manual.total_revenue);
  EXPECT_EQ(via_engine->solution.offers.size(), manual.offers.size());

  // The second reference solve is served from the cache.
  ASSERT_TRUE(engine.Solve(request).ok());
  EXPECT_EQ(engine.dataset_cache_stats().hits, 1);
}

// ---------------------------------------------------------------------------
// Batch determinism.
// ---------------------------------------------------------------------------

TEST(SolveBatch, MatchesIndividualSolvesAndRepeats) {
  RatingsDataset dataset = GenerateAmazonLike(TinyProfile(5));
  WtpMatrix wtp = WtpMatrix::FromRatings(dataset, 1.25);
  BundleConfigProblem problem;
  problem.wtp = &wtp;

  std::vector<SolveRequest> requests;
  for (const char* key :
       {"components", "pure-greedy", "mixed-greedy", "pure-matching",
        "mixed-greedy", "components"}) {
    SolveRequest request;
    request.method = key;
    request.problem = &problem;
    requests.push_back(std::move(request));
  }
  SolveRequest broken;
  broken.method = "not-a-method";
  broken.problem = &problem;
  requests.push_back(broken);

  Engine::Options options;
  options.threads = 4;
  Engine engine(options);
  std::vector<StatusOr<SolveResponse>> batch = engine.SolveBatch(requests);
  std::vector<StatusOr<SolveResponse>> batch_again = engine.SolveBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());

  for (std::size_t i = 0; i + 1 < requests.size(); ++i) {
    SCOPED_TRACE(requests[i].method);
    ASSERT_TRUE(batch[i].ok());
    // Identical to a lone Solve of the same request...
    Engine solo;
    StatusOr<SolveResponse> individual = solo.Solve(requests[i]);
    ASSERT_TRUE(individual.ok());
    EXPECT_EQ(batch[i]->solution.total_revenue,
              individual->solution.total_revenue);
    ASSERT_EQ(batch[i]->solution.offers.size(),
              individual->solution.offers.size());
    for (std::size_t o = 0; o < batch[i]->solution.offers.size(); ++o) {
      EXPECT_EQ(batch[i]->solution.offers[o].price,
                individual->solution.offers[o].price);
      EXPECT_EQ(batch[i]->solution.offers[o].items.ToString(),
                individual->solution.offers[o].items.ToString());
    }
    // ...and across repeated batches regardless of scheduling.
    ASSERT_TRUE(batch_again[i].ok());
    EXPECT_EQ(batch[i]->solution.total_revenue,
              batch_again[i]->solution.total_revenue);
  }

  // The bad request fails alone; it does not poison the batch.
  ASSERT_FALSE(batch.back().ok());
  EXPECT_EQ(batch.back().status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Concurrent requests on the shared pool.
// ---------------------------------------------------------------------------

// One tenant's session against its own market: a first resolve, a delta
// batch, and an incremental resolve, all at width 1. Returns both artifacts.
std::vector<std::string> TenantSession(Engine& engine, int seed) {
  DatasetSpec dataset_spec;
  dataset_spec.profile = "tiny";
  dataset_spec.seed = static_cast<std::uint64_t>(seed);
  auto dataset = engine.Dataset(dataset_spec);
  EXPECT_TRUE(dataset.ok());
  MarketStream market("tenant-" + std::to_string(seed));
  EXPECT_TRUE(market.Load(**dataset).ok());
  ResolveRequest request;
  request.market = &market;
  request.spec = *ResolveScenarioSpec(
      "scale=tiny;methods=components,pure-matching,mixed-matching;"
      "axis:theta=0,0.05");
  request.options.threads = 1;

  std::vector<std::string> artifacts;
  auto first = engine.Resolve(request);
  EXPECT_TRUE(first.ok());
  artifacts.push_back(SweepArtifactJson(first->result));

  MarketDelta scale;
  scale.op = MarketDeltaOp::kScalePrice;
  scale.item = 3;
  scale.value = 2.0;
  MarketDelta update;
  update.op = MarketDeltaOp::kUpdateRating;
  update.user = (*dataset)->ratings()[0].user;
  update.item = (*dataset)->ratings()[0].item;
  update.stars = 5.0;
  EXPECT_TRUE(market.Apply({scale, update}).ok());
  auto second = engine.Resolve(request);
  EXPECT_TRUE(second.ok());
  EXPECT_GT(second->pairs_reused, 0);
  artifacts.push_back(SweepArtifactJson(second->result));
  return artifacts;
}

// A two-cell sweep at width 4: each cell's solver gets two threads, so the
// cell job nests candidate-evaluation jobs on the same pool.
std::string WideSweep(Engine& engine) {
  SweepRequest request;
  request.spec = *ResolveScenarioSpec(
      "scale=tiny;seed=5;methods=mixed-matching;axis:theta=0,0.05");
  request.options.threads = 4;
  auto response = engine.Sweep(request);
  EXPECT_TRUE(response.ok());
  return SweepArtifactJson(response->result);
}

TEST(ConcurrentEngine, TenantResolvesBesideAWideSweepMatchSerialCalls) {
  constexpr int kTenants = 4;
  constexpr int kFirstSeed = 11;
  std::vector<std::vector<std::string>> expected;
  std::string expected_sweep;
  {
    Engine engine;
    for (int t = 0; t < kTenants; ++t) {
      expected.push_back(TenantSession(engine, kFirstSeed + t));
    }
    expected_sweep = WideSweep(engine);
  }

  Engine engine;
  std::vector<std::vector<std::string>> got(kTenants);
  std::string got_sweep;
  std::vector<std::thread> callers;
  for (int t = 0; t < kTenants; ++t) {
    callers.emplace_back([&engine, &got, t] {
      got[static_cast<std::size_t>(t)] = TenantSession(engine, kFirstSeed + t);
    });
  }
  callers.emplace_back([&engine, &got_sweep] { got_sweep = WideSweep(engine); });
  for (std::thread& caller : callers) caller.join();

  for (int t = 0; t < kTenants; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)],
              expected[static_cast<std::size_t>(t)])
        << "tenant " << t;
  }
  EXPECT_EQ(got_sweep, expected_sweep);
}

TEST(MatchingPairCache, FindsGainAndNoGainPairsAndMissesTheRest) {
  // A recorded solve over 5 items. Round 1 prices leaf pairs and merges
  // (1, 2) into node 5; round 2 prices pairs with node 5 and merges (5, 0)
  // into node 6. Rows arrive out of key order; Finish sorts them.
  using Outcome = MatchingPairCache::Outcome;
  MatchingPairCache cache;
  cache.Begin(5, nullptr);
  const Outcome gain{true, 1.5, 9.0, 2.0};
  const Outcome later_gain{true, 4.0, 11.0, 3.0};
  cache.Record(1, 4, Outcome{});
  cache.Record(0, 3, Outcome{});
  cache.Record(1, 2, gain);
  EXPECT_EQ(cache.AddInner(1, 2), 5);
  cache.Record(3, 5, later_gain);
  cache.Record(0, 5, Outcome{});
  // Without stale-edge pruning, round 2 prices an unchanged pair again.
  cache.Record(0, 3, Outcome{});
  EXPECT_EQ(cache.AddInner(5, 0), 6);
  cache.Finish();
  EXPECT_EQ(cache.size(), 5u);

  std::optional<Outcome> priced = cache.Find(1, 2);
  ASSERT_TRUE(priced.has_value());
  EXPECT_TRUE(priced->has_gain);
  EXPECT_EQ(priced->value, 1.5);
  EXPECT_EQ(priced->price, 9.0);
  EXPECT_EQ(priced->buyers, 2.0);
  std::optional<Outcome> later = cache.Find(3, 5);
  ASSERT_TRUE(later.has_value());
  EXPECT_TRUE(later->has_gain);
  EXPECT_EQ(later->value, 4.0);

  for (auto [a, b] : {std::pair{0, 3}, std::pair{1, 4}, std::pair{0, 5}}) {
    std::optional<Outcome> no_gain = cache.Find(a, b);
    ASSERT_TRUE(no_gain.has_value()) << a << "," << b;
    EXPECT_FALSE(no_gain->has_gain);
  }

  // Missing, and swapped order: keys are ordered pairs.
  EXPECT_FALSE(cache.Find(0, 4).has_value());
  EXPECT_FALSE(cache.Find(2, 1).has_value());
  EXPECT_FALSE(cache.Find(5, 3).has_value());
}

TEST(MatchingPairCache, MapsOffersToMergeTreeNodesOfCleanItems) {
  MatchingPairCache cache;
  cache.Begin(5, nullptr);
  EXPECT_EQ(cache.AddInner(1, 2), 5);
  EXPECT_EQ(cache.AddInner(5, 0), 6);
  cache.Finish();

  EXPECT_EQ(cache.FindLeaf(0), 0);
  EXPECT_EQ(cache.FindLeaf(4), 4);
  EXPECT_EQ(cache.FindLeaf(5), -1);
  EXPECT_EQ(cache.FindLeaf(-1), -1);

  // Children are ordered: the swapped merge is a different offer.
  EXPECT_EQ(cache.FindInner(1, 2), 5);
  EXPECT_EQ(cache.FindInner(2, 1), -1);
  EXPECT_NE(cache.FindInner(1, 2), cache.FindInner(2, 1));
  EXPECT_EQ(cache.FindInner(5, 0), 6);
  EXPECT_EQ(cache.FindInner(0, 5), -1);

  // Children that were never merged, or never existed, miss.
  EXPECT_EQ(cache.FindInner(0, 1), -1);
  EXPECT_EQ(cache.FindInner(6, 3), -1);
  EXPECT_EQ(cache.FindInner(7, 1), -1);

  // A later solve rebuilding the same tree from clean items finds the root;
  // with item 2 dirty (leaf -1), every ancestor of it misses.
  auto root_with_leaf2 = [&](int leaf2) {
    const int node = cache.FindInner(cache.FindLeaf(1), leaf2);
    return cache.FindInner(node, cache.FindLeaf(0));
  };
  EXPECT_EQ(root_with_leaf2(cache.FindLeaf(2)), 6);
  EXPECT_EQ(cache.FindInner(cache.FindLeaf(1), -1), -1);
  EXPECT_EQ(root_with_leaf2(-1), -1);
}

// ---------------------------------------------------------------------------
// Shard partition identity.
// ---------------------------------------------------------------------------

TEST(Sharding, ShardsPartitionTheGridAndMatchTheFullRun) {
  Engine engine;
  SweepRequest request;
  request.spec = TinyThetaSpec();

  StatusOr<SweepResponse> full = engine.Sweep(request);
  ASSERT_TRUE(full.ok());
  const std::vector<SweepCellResult>& full_cells = full->result.cells;
  ASSERT_EQ(static_cast<int>(full_cells.size()), full->grid_cells);

  for (int shard_count : {2, 3}) {
    std::set<int> seen;
    std::size_t total = 0;
    for (int shard = 0; shard < shard_count; ++shard) {
      request.shard_index = shard;
      request.shard_count = shard_count;
      StatusOr<SweepResponse> slice = engine.Sweep(request);
      ASSERT_TRUE(slice.ok());
      EXPECT_EQ(slice->grid_cells, full->grid_cells);
      total += slice->result.cells.size();
      for (const SweepCellResult& cell : slice->result.cells) {
        ASSERT_TRUE(seen.insert(cell.cell.index).second)
            << "cell " << cell.cell.index << " appeared in two shards";
        // Bit-identical to the same cell of the unsharded run.
        const SweepCellResult& reference =
            full_cells[static_cast<std::size_t>(cell.cell.index)];
        EXPECT_EQ(cell.cell.method, reference.cell.method);
        EXPECT_EQ(cell.revenue, reference.revenue);
        EXPECT_EQ(cell.coverage, reference.coverage);
        EXPECT_EQ(cell.stats.pairs_evaluated, reference.stats.pairs_evaluated);
        EXPECT_EQ(cell.bundle_size_histogram, reference.bundle_size_histogram);
      }
    }
    EXPECT_EQ(total, full_cells.size()) << "shards must partition the grid";
    EXPECT_EQ(seen.size(), full_cells.size());
  }
}

// ---------------------------------------------------------------------------
// Golden artifact through the Engine + reader round trip.
// ---------------------------------------------------------------------------

ScenarioSpec GoldenSpec() {
  ScenarioSpec spec;
  spec.name = "golden-tiny-theta";
  spec.description = "fixed-seed tiny theta sweep pinned by regression_test";
  spec.dataset.profile = "tiny";
  spec.dataset.seed = 7;
  spec.methods = StandardMethodKeys();
  spec.axes.push_back({AxisKind::kTheta, {-0.05, 0.0, 0.05}});
  return spec;
}

std::string GoldenPath() {
  return std::string(BUNDLEMINE_SOURCE_DIR) + "/tests/golden/tiny_theta_sweep.json";
}

TEST(GoldenThroughEngine, SweepArtifactByteIdenticalToCheckedInGolden) {
  Engine::Options options;
  options.threads = 2;
  Engine engine(options);
  SweepRequest request;
  request.spec = GoldenSpec();
  StatusOr<SweepResponse> response = engine.Sweep(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(SweepArtifactJson(response->result), ReadFile(GoldenPath()));
}

TEST(ArtifactReader, GoldenRoundTripsByteIdentically) {
  const std::string golden = ReadFile(GoldenPath());
  StatusOr<SweepResult> read = ReadSweepArtifact(GoldenPath());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->spec.name, "golden-tiny-theta");
  EXPECT_EQ(read->cells.size(), 21u);  // 3 θ values × 7 standard methods.
  // write → read → write reproduces the artifact byte for byte.
  EXPECT_EQ(SweepArtifactJson(*read), golden);
  // And the reconstructed cell indices follow grid order.
  for (std::size_t i = 0; i < read->cells.size(); ++i) {
    EXPECT_EQ(read->cells[i].cell.index, static_cast<int>(i));
  }
}

TEST(ArtifactReader, ShardArtifactKeepsStableGridIndices) {
  // Cell indices are not serialized; the reader must reconstruct the
  // *stable grid* index from axis values + method, so a shard slice reads
  // back with the same indices the full grid assigns (1, 3, 5 for shard
  // 1/2 of a 6-cell grid), not array positions (0, 1, 2).
  Engine engine;
  SweepRequest request;
  request.spec = TinyThetaSpec();
  request.shard_index = 1;
  request.shard_count = 2;
  StatusOr<SweepResponse> slice = engine.Sweep(request);
  ASSERT_TRUE(slice.ok());

  StatusOr<SweepResult> read =
      ParseSweepArtifact(SweepArtifactJson(slice->result));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->cells.size(), slice->result.cells.size());
  for (std::size_t i = 0; i < read->cells.size(); ++i) {
    EXPECT_EQ(read->cells[i].cell.index, slice->result.cells[i].cell.index);
  }
  // And the slice still round-trips byte-identically.
  EXPECT_EQ(SweepArtifactJson(*read), SweepArtifactJson(slice->result));
}

TEST(ArtifactReader, RejectsWrongSchemaAndMalformedInput) {
  StatusOr<SweepResult> not_json = ParseSweepArtifact("not json at all");
  ASSERT_FALSE(not_json.ok());
  EXPECT_EQ(not_json.status().code(), StatusCode::kInvalidArgument);

  StatusOr<SweepResult> wrong_schema = ParseSweepArtifact(
      "{\"schema\": \"other.schema\", \"schema_version\": 1}");
  ASSERT_FALSE(wrong_schema.ok());
  EXPECT_NE(wrong_schema.status().message().find("other.schema"),
            std::string::npos);

  StatusOr<SweepResult> missing = ReadSweepArtifact("/no/such/artifact.json");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace bundlemine