// Determinism guarantees of the scenario engine: the same ScenarioSpec must
// produce byte-identical sweep JSON at --threads=1 and --threads=4, across
// repeated runs with the same seed, and across axis orderings of the same
// cells. These are the properties the golden regression and the CI artifact
// upload rely on.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/solve_context.h"
#include "gtest/gtest.h"
#include "scenario/artifact_writer.h"
#include "scenario/scenario_spec.h"
#include "scenario/sweep_runner.h"
#include "sweep_test_util.h"
#include "util/rng.h"

namespace bundlemine {
namespace {

ScenarioSpec DeterminismSpec() {
  ScenarioSpec spec;
  spec.name = "determinism";
  spec.description = "threads-vs-serial identity probe";
  spec.dataset.profile = "tiny";
  spec.dataset.seed = 7;
  // Matching methods exercise the largest solver surface (blossom matching,
  // mixed upgrades); freq adds the mining path.
  spec.methods = {"components", "pure-matching", "mixed-matching", "mixed-freq"};
  spec.axes.push_back({AxisKind::kTheta, {-0.05, 0.0, 0.05}});
  return spec;
}

std::string RunToJson(const ScenarioSpec& spec, int threads) {
  SweepRunnerOptions options;
  options.threads = threads;
  return SweepArtifactJson(RunFullSweep(spec, options));
}

TEST(SweepDeterminism, SerialAndThreadedJsonAreByteIdentical) {
  ScenarioSpec spec = DeterminismSpec();
  std::string serial = RunToJson(spec, 1);
  std::string threaded = RunToJson(spec, 4);
  EXPECT_EQ(serial, threaded);
}

TEST(SweepDeterminism, RepeatedRunsAreByteIdentical) {
  ScenarioSpec spec = DeterminismSpec();
  std::string first = RunToJson(spec, 4);
  std::string second = RunToJson(spec, 4);
  EXPECT_EQ(first, second);
}

TEST(SweepDeterminism, MultiAxisGridIsThreadInvariant) {
  ScenarioSpec spec = DeterminismSpec();
  spec.methods = {"components", "pure-greedy", "mixed-greedy"};
  spec.axes.push_back({AxisKind::kK, {2, 0}});
  EXPECT_EQ(RunToJson(spec, 1), RunToJson(spec, 3));
}

TEST(SweepDeterminism, DatasetAndPruningAxesAreThreadInvariant) {
  // Dataset axes regenerate a dataset per axis point and pruning axes
  // reconfigure the solver per cell; both must preserve the byte-identity
  // guarantee across thread counts.
  ScenarioSpec spec = DeterminismSpec();
  spec.methods = {"components", "pure-matching"};
  spec.axes.clear();
  spec.axes.push_back({AxisKind::kNumUsers, {160, 220}});
  spec.axes.push_back({AxisKind::kPruneCoInterest, {1, 0}});
  std::string serial = RunToJson(spec, 1);
  EXPECT_EQ(serial, RunToJson(spec, 4));
  // The artifact records each cell's own post-filter dataset size.
  EXPECT_NE(serial.find("\"dataset\": {"), std::string::npos);
  EXPECT_NE(serial.find("\"num_users\": 160"), std::string::npos);
}

TEST(SweepDeterminism, ItemSampleAxisIsThreadInvariant) {
  ScenarioSpec spec = DeterminismSpec();
  spec.methods = {"components", "pure-greedy"};
  spec.axes.clear();
  spec.axes.push_back({AxisKind::kItemSample, {10, 20}});
  EXPECT_EQ(RunToJson(spec, 1), RunToJson(spec, 3));
}

TEST(SweepDeterminism, CapturedTracesAreThreadInvariant) {
  ScenarioSpec spec = DeterminismSpec();
  spec.methods = {"components", "mixed-greedy"};
  SweepRunnerOptions serial_options, threaded_options;
  serial_options.threads = 1;
  serial_options.capture_traces = true;
  threaded_options.threads = 4;
  threaded_options.capture_traces = true;
  std::string serial = SweepArtifactJson(RunFullSweep(spec, serial_options));
  std::string threaded = SweepArtifactJson(RunFullSweep(spec, threaded_options));
  EXPECT_EQ(serial, threaded);
  EXPECT_NE(serial.find("\"trace\": ["), std::string::npos);
}

// A one-cell grid leaves the sweep's other workers idle, so they join the
// cell's own candidate evaluation: greedy's seed pairs and per-merge
// candidates, freq's itemsets. The artifact, pairs_evaluated included, must
// not depend on how many threads that evaluation ran on.
void ExpectOneCellGridsThreadInvariant(const std::string& profile) {
  for (const char* method :
       {"pure-greedy", "mixed-greedy", "pure-freq", "mixed-freq"}) {
    ScenarioSpec spec = DeterminismSpec();
    spec.dataset.profile = profile;
    spec.methods = {method};
    spec.axes = {{AxisKind::kTheta, {0.05}}};
    SweepRunnerOptions options;
    options.threads = 4;
    int width = 0;
    options.context_hook = [&width](int, SolveContext& context) {
      width = context.options().num_threads;
    };
    const std::string threaded = SweepArtifactJson(RunFullSweep(spec, options));
    EXPECT_EQ(width, 4) << profile << " " << method;
    EXPECT_EQ(RunToJson(spec, 1), threaded) << profile << " " << method;
    EXPECT_NE(threaded.find("\"pairs_evaluated\": "), std::string::npos);
    EXPECT_EQ(threaded.find("\"pairs_evaluated\": 0,"), std::string::npos)
        << profile << " " << method;
  }
}

TEST(SweepDeterminism, OneCellGridsAreThreadInvariantTiny) {
  ExpectOneCellGridsThreadInvariant("tiny");
}

TEST(SweepDeterminism, OneCellGridsAreThreadInvariantSmall) {
  ExpectOneCellGridsThreadInvariant("small");
}

TEST(SweepDeterminism, SeedChangesTheArtifact) {
  // Sanity check that byte-identity is not vacuous: a different dataset seed
  // must produce a different artifact.
  ScenarioSpec spec = DeterminismSpec();
  std::string base = RunToJson(spec, 1);
  spec.dataset.seed = 8;
  EXPECT_NE(base, RunToJson(spec, 1));
}

// ---------------------------------------------------------------------------
// Shard-boundary property: for any spec and any shard count, the shards
// FilterShard produces must partition the expanded grid *exactly* — no cell
// lost, no cell duplicated. This is the invariant the fleet orchestrator's
// byte-identity contract stands on: MergeSweepResults can only reassemble
// the unsharded artifact if the shard slices tile the grid.
// ---------------------------------------------------------------------------

TEST(SweepDeterminism, ShardsPartitionTheGridExactlyForRandomSpecs) {
  // A pool of axes to draw random grids from, mixing the three axis
  // families (problem knobs, dataset axes, method config).
  const std::vector<ScenarioAxis> axis_pool = {
      {AxisKind::kTheta, {-0.1, -0.05, 0.0, 0.05, 0.1}},
      {AxisKind::kK, {2, 3, 4, 0}},
      {AxisKind::kLambda, {1.0, 1.25, 1.5}},
      {AxisKind::kLevels, {50, 100}},
      {AxisKind::kNumUsers, {120, 220, 400}},
      {AxisKind::kFreqSupport, {0.01, 0.02}},
  };
  const std::vector<std::string> method_pool = {
      "components", "mixed-greedy", "pure-greedy", "mixed-matching",
      "mixed-freq"};

  Rng rng(20260808);
  for (int trial = 0; trial < 25; ++trial) {
    ScenarioSpec spec;
    spec.name = "shard-partition-probe";
    spec.dataset.profile = "tiny";
    spec.dataset.seed = 7;
    // 1-3 random distinct axes (a spec may not repeat an axis kind), each
    // with a random non-empty prefix of its values.
    std::vector<std::size_t> order(axis_pool.size());
    for (std::size_t a = 0; a < order.size(); ++a) order[a] = a;
    for (std::size_t a = 0; a < order.size(); ++a) {
      std::swap(order[a],
                order[a + rng.UniformU32(static_cast<std::uint32_t>(
                               order.size() - a))]);
    }
    const int num_axes = rng.UniformInt(1, 3);
    for (int a = 0; a < num_axes; ++a) {
      ScenarioAxis axis = axis_pool[order[static_cast<std::size_t>(a)]];
      axis.values.resize(static_cast<std::size_t>(
          rng.UniformInt(1, static_cast<int>(axis.values.size()))));
      spec.axes.push_back(std::move(axis));
    }
    // 1..all methods, drawn without replacement.
    std::vector<std::string> methods = method_pool;
    const std::size_t keep = static_cast<std::size_t>(
        rng.UniformInt(1, static_cast<int>(methods.size())));
    for (std::size_t m = 0; m < keep; ++m) {
      std::swap(methods[m],
                methods[m + rng.UniformU32(static_cast<std::uint32_t>(
                                 methods.size() - m))]);
    }
    methods.resize(keep);
    spec.methods = std::move(methods);

    const std::vector<SweepCell> grid = ExpandGrid(spec);
    ASSERT_FALSE(grid.empty());
    for (int n = 1; n <= 8; ++n) {
      std::vector<int> covered;  // Grid indices over all shards.
      for (int i = 0; i < n; ++i) {
        for (const SweepCell& cell : FilterShard(grid, i, n)) {
          covered.push_back(cell.index);
        }
      }
      // Exactly the full grid: same size, and (sorted) exactly 0..N-1 with
      // no duplicates.
      ASSERT_EQ(covered.size(), grid.size())
          << "trial " << trial << " n=" << n;
      std::sort(covered.begin(), covered.end());
      for (std::size_t j = 0; j < covered.size(); ++j) {
        ASSERT_EQ(covered[j], grid[j].index)
            << "trial " << trial << " n=" << n << " position " << j;
      }
    }
  }
}

}  // namespace
}  // namespace bundlemine
