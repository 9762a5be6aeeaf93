// Scenario-engine unit tests: spec parsing/formatting round-trips, knob
// domains across every front end, grid expansion order, builtin-preset
// validity, the deterministic JSON writer, and artifact structure.

#include <cstdlib>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "gtest/gtest.h"
#include "scenario/artifact_reader.h"
#include "scenario/artifact_writer.h"
#include "scenario/scenario_spec.h"
#include "scenario/sweep_runner.h"
#include "serve/protocol.h"
#include "sweep_test_util.h"
#include "util/json.h"

namespace bundlemine {
namespace {

ScenarioSpec TinySpec() {
  ScenarioSpec spec;
  spec.name = "unit";
  spec.description = "unit-test scenario";
  spec.dataset.profile = "tiny";
  spec.dataset.seed = 7;
  spec.methods = {"components", "pure-greedy", "mixed-greedy"};
  spec.axes.push_back({AxisKind::kTheta, {-0.05, 0.0, 0.05}});
  return spec;
}

// ---------------------------------------------------------------------------
// Spec parsing and validation.
// ---------------------------------------------------------------------------

TEST(ScenarioSpecTest, ParsesInlineText) {
  std::string error;
  std::optional<ScenarioSpec> spec = ParseScenarioSpec(
      "name=my; scale=tiny; seed=9; lambda=1.5; theta=0.02; k=3; levels=50;"
      "methods=components,mixed-greedy; axis:theta=-0.1,0,0.1; axis:k=2,3",
      &error);
  ASSERT_TRUE(spec) << error;
  EXPECT_EQ(spec->name, "my");
  EXPECT_EQ(spec->dataset.profile, "tiny");
  EXPECT_EQ(spec->dataset.seed, 9u);
  EXPECT_DOUBLE_EQ(spec->dataset.lambda, 1.5);
  EXPECT_DOUBLE_EQ(spec->theta, 0.02);
  EXPECT_EQ(spec->max_bundle_size, 3);
  EXPECT_EQ(spec->price_levels, 50);
  ASSERT_EQ(spec->methods.size(), 2u);
  ASSERT_EQ(spec->axes.size(), 2u);
  EXPECT_EQ(spec->axes[0].kind, AxisKind::kTheta);
  EXPECT_EQ(spec->axes[1].kind, AxisKind::kK);
  EXPECT_EQ(spec->axes[0].values, (std::vector<double>{-0.1, 0.0, 0.1}));
  EXPECT_TRUE(ValidateScenarioSpec(*spec, &error)) << error;
}

TEST(ScenarioSpecTest, ParseRejectsBadInput) {
  std::string error;
  EXPECT_FALSE(ParseScenarioSpec("scale", &error));
  EXPECT_NE(error.find("key=value"), std::string::npos);
  EXPECT_FALSE(ParseScenarioSpec("axis:bogus=1,2", &error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
  EXPECT_FALSE(ParseScenarioSpec("axis:theta=1,zap", &error));
  EXPECT_FALSE(ParseScenarioSpec("seed=-3", &error));
  EXPECT_FALSE(ParseScenarioSpec("frobnicate=1", &error));
  EXPECT_NE(error.find("frobnicate"), std::string::npos);
}

TEST(ScenarioSpecTest, ValidateCatchesStructuralProblems) {
  std::string error;
  ScenarioSpec spec = TinySpec();
  spec.dataset.profile = "galactic";
  EXPECT_FALSE(ValidateScenarioSpec(spec, &error));
  EXPECT_NE(error.find("galactic"), std::string::npos);

  spec = TinySpec();
  spec.methods.push_back("no-such-method");
  EXPECT_FALSE(ValidateScenarioSpec(spec, &error));
  EXPECT_NE(error.find("no-such-method"), std::string::npos);

  spec = TinySpec();
  spec.methods.clear();
  EXPECT_FALSE(ValidateScenarioSpec(spec, &error));

  spec = TinySpec();
  spec.axes.clear();
  EXPECT_FALSE(ValidateScenarioSpec(spec, &error));

  spec = TinySpec();
  spec.axes.push_back({AxisKind::kTheta, {0.5}});  // Duplicate axis kind.
  EXPECT_FALSE(ValidateScenarioSpec(spec, &error));

  spec = TinySpec();
  spec.axes[0].values.clear();
  EXPECT_FALSE(ValidateScenarioSpec(spec, &error));
}

TEST(ScenarioSpecTest, WarnsOnCompositionAxisWithoutGamma) {
  ScenarioSpec spec = TinySpec();
  spec.axes.push_back({AxisKind::kComposition, {0, 1}});
  std::string error;
  ASSERT_TRUE(ValidateScenarioSpec(spec, &error)) << error;
  std::vector<std::string> warnings = ScenarioSpecWarnings(spec);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("composition"), std::string::npos);
  EXPECT_NE(warnings[0].find("gamma"), std::string::npos);

  // Adding a gamma axis silences the lint.
  spec.axes.push_back({AxisKind::kGamma, {1.0, 10.0}});
  ASSERT_TRUE(ValidateScenarioSpec(spec, &error)) << error;
  EXPECT_TRUE(ScenarioSpecWarnings(spec).empty());

  EXPECT_TRUE(ScenarioSpecWarnings(TinySpec()).empty());
}

TEST(ScenarioSpecTest, DuplicateAxisDiagnosticNamesBothPositions) {
  ScenarioSpec spec = TinySpec();
  spec.axes.push_back({AxisKind::kK, {2, 3}});
  spec.axes.push_back({AxisKind::kTheta, {0.5}});  // Duplicates axis 1.
  std::string error;
  EXPECT_FALSE(ValidateScenarioSpec(spec, &error));
  EXPECT_EQ(error, "axis 'theta' repeated (axes 1 and 3)");
}

TEST(ScenarioSpecTest, ParsesDatasetAndMethodConfigAxes) {
  std::string error;
  std::optional<ScenarioSpec> spec = ParseScenarioSpec(
      "scale=tiny; seed=9; methods=components,mixed-freq;"
      "num-users=180; item-sample=25;"
      "axis:num_items=60,80; axis:freq-support=0.04,0.08;"
      "axis:prune-co-interest=1,0",
      &error);
  ASSERT_TRUE(spec) << error;
  ASSERT_TRUE(spec->dataset.num_users);
  EXPECT_EQ(*spec->dataset.num_users, 180);
  ASSERT_TRUE(spec->dataset.item_sample);
  EXPECT_EQ(*spec->dataset.item_sample, 25);
  ASSERT_EQ(spec->axes.size(), 3u);
  EXPECT_EQ(spec->axes[0].kind, AxisKind::kNumItems);
  EXPECT_EQ(spec->axes[1].kind, AxisKind::kFreqSupport);
  EXPECT_EQ(spec->axes[2].kind, AxisKind::kPruneCoInterest);
  EXPECT_TRUE(ValidateScenarioSpec(*spec, &error)) << error;
  // The canonical form is a fixpoint of format∘parse for the new keys too.
  std::optional<ScenarioSpec> reparsed =
      ParseScenarioSpec(FormatScenarioSpec(*spec), &error);
  ASSERT_TRUE(reparsed) << error;
  EXPECT_EQ(FormatScenarioSpec(*reparsed), FormatScenarioSpec(*spec));
}

TEST(ScenarioSpecTest, MinerIsAnUnknownAxis) {
  // MAFIA is the only frequent-itemset miner, so there is no engine axis; a
  // spec naming one is refused at parse time like any other unknown axis.
  std::string error;
  EXPECT_FALSE(ParseScenarioSpec(
      "scale=small; seed=7; methods=pure-freq; axis:miner=0", &error));
  EXPECT_EQ(error, "unknown axis 'miner'");
}

TEST(ScenarioSpecTest, ValidateRejectsBadAxisValues) {
  std::string error;
  ScenarioSpec spec = TinySpec();

  spec.axes = {{AxisKind::kFreqSupport, {0.04, 1.5}}};  // Above 1.
  EXPECT_FALSE(ValidateScenarioSpec(spec, &error));
  EXPECT_NE(error.find("freq-support"), std::string::npos);

  spec.axes = {{AxisKind::kPruneCoInterest, {0.5}}};  // Toggles are 0/1.
  EXPECT_FALSE(ValidateScenarioSpec(spec, &error));
  EXPECT_NE(error.find("prune-co-interest"), std::string::npos);

  spec.axes = {{AxisKind::kNumUsers, {0}}};  // Populations are >= 1.
  EXPECT_FALSE(ValidateScenarioSpec(spec, &error));
  EXPECT_NE(error.find("num_users"), std::string::npos);

  spec.axes = {{AxisKind::kNumItems, {80.5}}};  // And integral.
  EXPECT_FALSE(ValidateScenarioSpec(spec, &error));

  spec.axes = {{AxisKind::kFreqSupport, {0.0}}};  // Support is in (0, 1].
  EXPECT_FALSE(ValidateScenarioSpec(spec, &error));
  EXPECT_NE(error.find("freq-support"), std::string::npos);

  spec.axes = {{AxisKind::kMatchingLimit, {-1}}};
  EXPECT_FALSE(ValidateScenarioSpec(spec, &error));

  // Integer-kind values beyond int range (or non-finite anywhere) must fail
  // validation rather than reach the runner's static_cast<int>.
  spec.axes = {{AxisKind::kLevels, {4294967297.0}}};
  EXPECT_FALSE(ValidateScenarioSpec(spec, &error));
  spec.axes = {{AxisKind::kNumUsers, {1e300}}};
  EXPECT_FALSE(ValidateScenarioSpec(spec, &error));
  spec.axes = {{AxisKind::kTheta, {std::numeric_limits<double>::infinity()}}};
  EXPECT_FALSE(ValidateScenarioSpec(spec, &error));

  spec.axes = {{AxisKind::kLambda, {1.0, -0.5}}};
  EXPECT_FALSE(ValidateScenarioSpec(spec, &error));
}

// The adoption model needs gamma > 0 and alpha > 0; a spec reaching it with
// anything else used to abort the process instead of getting an error.
TEST(ScenarioSpecTest, ValidateRejectsNonPositiveAdoptionAxes) {
  const std::pair<const char*, const char*> cases[] = {
      {"axis:gamma=0", "axis 'gamma' needs positive values, got 0.0"},
      {"axis:gamma=1,-1", "axis 'gamma' needs positive values, got -1.0"},
      {"axis:alpha=0", "axis 'alpha' needs positive values, got 0.0"},
      {"axis:alpha=-0.5", "axis 'alpha' needs positive values, got -0.5"},
  };
  for (const auto& [axis, expected] : cases) {
    std::string error;
    std::optional<ScenarioSpec> spec = ParseScenarioSpec(
        std::string("scale=tiny;seed=7;methods=components;") + axis, &error);
    ASSERT_TRUE(spec) << axis << ": " << error;
    EXPECT_FALSE(ValidateScenarioSpec(*spec, &error)) << axis;
    EXPECT_EQ(error, expected);
  }
  std::string error;
  std::optional<ScenarioSpec> positive = ParseScenarioSpec(
      "scale=tiny;seed=7;methods=components;axis:gamma=0.1,1e6;"
      "axis:alpha=0.75,1.25",
      &error);
  ASSERT_TRUE(positive) << error;
  EXPECT_TRUE(ValidateScenarioSpec(*positive, &error)) << error;
}

TEST(ScenarioSpecTest, AxisNamesRoundTripAndDescribe) {
  for (AxisKind kind : AllAxisKinds()) {
    std::optional<AxisKind> reparsed = AxisKindByName(AxisKindName(kind));
    ASSERT_TRUE(reparsed) << AxisKindName(kind);
    EXPECT_EQ(*reparsed, kind);
    EXPECT_FALSE(AxisKindDescription(kind).empty());
  }
  EXPECT_EQ(static_cast<int>(AllAxisKinds().size()), kNumAxisKinds);
}

TEST(ScenarioSpecTest, FormatParseRoundTrips) {
  ScenarioSpec spec = TinySpec();
  spec.dataset.activity_sigma = 1.1;
  spec.dataset.genres_per_user = 2;
  spec.axes.push_back({AxisKind::kGamma, {0.1, 1e6}});
  std::string text = FormatScenarioSpec(spec);
  std::string error;
  std::optional<ScenarioSpec> reparsed = ParseScenarioSpec(text, &error);
  ASSERT_TRUE(reparsed) << error;
  // The canonical form is a fixpoint of format∘parse.
  EXPECT_EQ(FormatScenarioSpec(*reparsed), text);
  EXPECT_EQ(reparsed->dataset.seed, spec.dataset.seed);
  ASSERT_TRUE(reparsed->dataset.activity_sigma);
  EXPECT_DOUBLE_EQ(*reparsed->dataset.activity_sigma, 1.1);
  ASSERT_EQ(reparsed->axes.size(), 2u);
  EXPECT_EQ(reparsed->axes[1].values, spec.axes[1].values);
}

TEST(ScenarioSpecTest, BuiltinsAreValidAndFindable) {
  const std::vector<ScenarioSpec>& presets = BuiltinScenarios();
  ASSERT_GE(presets.size(), 9u);
  for (const ScenarioSpec& spec : presets) {
    std::string error;
    EXPECT_TRUE(ValidateScenarioSpec(spec, &error)) << spec.name << ": " << error;
    EXPECT_EQ(FindBuiltinScenario(spec.name), &spec);
    // Every preset round-trips through its textual form.
    std::optional<ScenarioSpec> reparsed =
        ParseScenarioSpec(FormatScenarioSpec(spec), &error);
    ASSERT_TRUE(reparsed) << spec.name << ": " << error;
    EXPECT_EQ(FormatScenarioSpec(*reparsed), FormatScenarioSpec(spec));
  }
  EXPECT_EQ(FindBuiltinScenario("no-such-preset"), nullptr);
  // The multi-axis preset exists (exercises cross-product expansion).
  const ScenarioSpec* grid = FindBuiltinScenario("sigmoid-theta-grid");
  ASSERT_NE(grid, nullptr);
  EXPECT_EQ(grid->axes.size(), 2u);
}

// The exact pricing path (levels 0) takes the step adoption model only; a
// gamma axis over it used to abort the sweep in the pricer.
TEST(ScenarioSpecTest, ValidateRejectsGammaAxisWithExactPricing) {
  for (const char* text :
       {"scale=tiny;seed=7;levels=0;methods=components;axis:gamma=1,10",
        "scale=tiny;seed=7;methods=components;axis:gamma=1;axis:levels=50,0"}) {
    std::string error;
    std::optional<ScenarioSpec> spec = ParseScenarioSpec(text, &error);
    ASSERT_TRUE(spec) << text << ": " << error;
    EXPECT_FALSE(ValidateScenarioSpec(*spec, &error)) << text;
    EXPECT_NE(error.find("gamma"), std::string::npos) << error;
  }
  std::string error;
  std::optional<ScenarioSpec> grid = ParseScenarioSpec(
      "scale=tiny;seed=7;levels=0;methods=components;axis:gamma=1;"
      "axis:levels=50",
      &error);
  ASSERT_TRUE(grid) << error;
  EXPECT_TRUE(ValidateScenarioSpec(*grid, &error)) << error;
}

// ---------------------------------------------------------------------------
// Knob domains: every front end gives one value the same verdict.
// ---------------------------------------------------------------------------

// A knob value just inside or just outside the knob's domain. `key` is its
// spec-text key, `json` its wire name and `axis` its axis name; each is
// empty when the knob has no such form.
struct KnobProbe {
  const char* key;
  const char* json;
  const char* axis;
  const char* value;
  bool inside;
};

const KnobProbe kKnobProbes[] = {
    {"scale", "profile", "", "tiny", true},
    {"scale", "profile", "", "galactic", false},
    {"seed", "seed", "", "0", true},
    {"seed", "seed", "", "-1", false},
    {"lambda", "lambda", "lambda", "100", true},
    {"lambda", "lambda", "lambda", "100.5", false},
    {"lambda", "lambda", "lambda", "1e-3", true},
    {"lambda", "lambda", "lambda", "9.99e-4", false},
    {"activity-sigma", "activity_sigma", "", "0", true},
    {"activity-sigma", "activity_sigma", "", "-0.001", false},
    {"background-mass", "background_mass", "", "0", true},
    {"background-mass", "background_mass", "", "-0.001", false},
    {"popularity-exponent", "popularity_exponent", "", "0", true},
    {"popularity-exponent", "popularity_exponent", "", "-0.001", false},
    {"genres-per-user", "genres_per_user", "", "1", true},
    {"genres-per-user", "genres_per_user", "", "0", false},
    {"num-users", "", "num_users", "1", true},
    {"num-users", "", "num_users", "0", false},
    {"num-items", "", "num_items", "1", true},
    {"num-items", "", "num_items", "0", false},
    {"item-sample", "", "item-sample", "1", true},
    {"item-sample", "", "item-sample", "0", false},
    {"theta", "theta", "theta", "1", true},
    {"theta", "theta", "theta", "1.001", false},
    {"theta", "theta", "theta", "-1", true},
    {"theta", "theta", "theta", "-1.001", false},
    {"k", "k", "k", "0", true},
    {"k", "k", "k", "-1", false},
    {"levels", "levels", "levels", "0", true},
    {"levels", "levels", "levels", "-1", false},
    {"", "", "gamma", "1e-9", true},
    {"", "", "gamma", "0", false},
    {"", "", "alpha", "1e-9", true},
    {"", "", "alpha", "0", false},
    {"", "", "prune-co-interest", "1", true},
    {"", "", "prune-co-interest", "2", false},
    {"", "", "prune-stale-edges", "0", true},
    {"", "", "prune-stale-edges", "-1", false},
    {"", "", "matching-limit", "0", true},
    {"", "", "matching-limit", "-1", false},
    {"", "", "composition", "1", true},
    {"", "", "composition", "0.5", false},
    {"", "", "freq-support", "1", true},
    {"", "", "freq-support", "1.001", false},
};

bool IsProblemKnob(const std::string& key) {
  return key == "theta" || key == "k" || key == "levels";
}

// Writes a probe's value into the knob it names on a dataset-reference
// solve.
void SetSolveKnob(const std::string& key, const std::string& value,
                  SolveRequest* request) {
  DatasetSpec& d = *request->dataset;
  const double v = std::strtod(value.c_str(), nullptr);
  const int n = static_cast<int>(v);
  if (key == "scale") d.profile = value;
  if (key == "seed") {
    d.seed = static_cast<std::uint64_t>(std::strtoll(value.c_str(), nullptr, 10));
  }
  if (key == "lambda") d.lambda = v;
  if (key == "activity-sigma") d.activity_sigma = v;
  if (key == "background-mass") d.background_mass = v;
  if (key == "popularity-exponent") d.popularity_exponent = v;
  if (key == "genres-per-user") d.genres_per_user = n;
  if (key == "num-users") d.num_users = n;
  if (key == "num-items") d.num_items = n;
  if (key == "item-sample") d.item_sample = n;
  if (key == "theta") request->theta = v;
  if (key == "k") request->max_bundle_size = n;
  if (key == "levels") request->price_levels = n;
}

bool SpecVerdict(const std::string& text) {
  std::string error;
  std::optional<ScenarioSpec> spec = ParseScenarioSpec(text, &error);
  return spec && ValidateScenarioSpec(*spec, &error);
}

TEST(KnobDomainTest, EveryFrontEndAgrees) {
  Engine engine;
  for (const KnobProbe& probe : kKnobProbes) {
    const std::string key = probe.key, json = probe.json, axis = probe.axis;
    const std::string value = probe.value;
    SCOPED_TRACE((key.empty() ? axis : key) + "=" + value);
    if (!key.empty()) {
      EXPECT_EQ(SpecVerdict("scale=tiny;seed=7;methods=components;"
                            "axis:matching-limit=4000;" +
                            key + "=" + value),
                probe.inside)
          << "spec text";

      SolveRequest request;
      request.method = "components";
      request.dataset = DatasetSpec{};
      request.dataset->profile = "tiny";
      request.dataset->seed = 7;
      SetSolveKnob(key, value, &request);
      EXPECT_EQ(engine.Solve(request).ok(), probe.inside) << "Engine::Solve";
    }
    if (!axis.empty()) {
      EXPECT_EQ(SpecVerdict("scale=tiny;seed=7;methods=components;axis:" +
                            axis + "=" + value),
                probe.inside)
          << "axis";
    }
    if (json.empty()) continue;
    const std::string member =
        "\"" + json + "\":" + (key == "scale" ? "\"" + value + "\"" : value);
    if (IsProblemKnob(key)) {
      StatusOr<WireRequest> solve = ParseWireRequest(
          R"({"kind":"solve","method":"components",)"
          R"("dataset":{"profile":"tiny"},)" + member + "}");
      EXPECT_EQ(solve.ok(), probe.inside) << "wire solve";
      continue;
    }
    const std::string dataset =
        "{" + member + (key == "seed" ? "" : ",\"seed\":7") + "}";
    for (const std::string& line :
         {R"({"kind":"solve","method":"components","dataset":)" + dataset + "}",
          R"({"kind":"update","load":)" + dataset + "}"}) {
      StatusOr<WireRequest> request = ParseWireRequest(line);
      EXPECT_EQ(request.ok(), probe.inside) << line;
      if (!request.ok()) {
        EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
      }
    }
  }
}

// WTP scales linearly in λ and every price grid with it, so coverage must
// not move with λ. Below λ's lower bound the solvers' absolute tolerances
// (1e-9) start to matter: coverage read 118.93% at λ = 1e-300, and
// Components moved at λ = 1e-12.
TEST(KnobDomainTest, CoverageDoesNotMoveAcrossTheLambdaDomain) {
  Engine engine;
  SweepRequest request;
  std::string error;
  std::optional<ScenarioSpec> spec = ParseScenarioSpec(
      "scale=tiny;seed=7;methods=components,pure-matching,mixed-greedy,"
      "mixed-matching;axis:lambda=0.001,1.25;axis:theta=0,0.05",
      &error);
  ASSERT_TRUE(spec) << error;
  request.spec = *spec;
  StatusOr<SweepResponse> response = engine.Sweep(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  std::map<std::pair<std::string, double>, std::vector<double>> by_cell;
  for (const SweepCellResult& cell : response->result.cells) {
    by_cell[{cell.cell.method, cell.cell.axis_values[1]}].push_back(
        cell.coverage);
  }
  ASSERT_EQ(by_cell.size(), 8u);
  for (const auto& [cell, coverage] : by_cell) {
    ASSERT_EQ(coverage.size(), 2u);
    EXPECT_NEAR(coverage[0], coverage[1], 1e-6)
        << cell.first << " theta=" << cell.second;
  }
}

// Every axis kind has a probe, so the table above covers every sweepable
// knob.
TEST(KnobDomainTest, ProbesCoverEveryAxis) {
  for (AxisKind kind : AllAxisKinds()) {
    bool probed = false;
    for (const KnobProbe& probe : kKnobProbes) {
      probed = probed || AxisKindName(kind) == probe.axis;
    }
    EXPECT_TRUE(probed) << AxisKindName(kind);
  }
}

// A spec setting every knob survives both text and artifact round trips.
TEST(KnobDomainTest, EveryKnobRoundTrips) {
  const std::string text =
      "name=all;description=every knob;scale=tiny;seed=7;lambda=1.5;"
      "activity-sigma=0.5;background-mass=0.1;popularity-exponent=1.2;"
      "genres-per-user=2;num-users=150;num-items=60;item-sample=40;"
      "theta=0.05;k=3;levels=50;methods=components;axis:theta=0;axis:k=2;"
      "axis:gamma=10;axis:alpha=1.1;axis:lambda=1.25;axis:levels=20;"
      "axis:num_users=150;axis:num_items=60;axis:item-sample=30;"
      "axis:prune-co-interest=1;axis:prune-stale-edges=0;"
      "axis:matching-limit=100;axis:composition=1;axis:freq-support=0.05";
  std::string error;
  std::optional<ScenarioSpec> spec = ParseScenarioSpec(text, &error);
  ASSERT_TRUE(spec) << error;
  ASSERT_TRUE(ValidateScenarioSpec(*spec, &error)) << error;
  EXPECT_EQ(static_cast<int>(spec->axes.size()), kNumAxisKinds);
  const std::string canonical = FormatScenarioSpec(*spec);

  std::optional<ScenarioSpec> reparsed = ParseScenarioSpec(canonical, &error);
  ASSERT_TRUE(reparsed) << error;
  EXPECT_EQ(FormatScenarioSpec(*reparsed), canonical);

  SweepResult result;
  result.spec = *spec;
  StatusOr<SweepResult> read = ParseSweepArtifact(SweepArtifactJson(result));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(FormatScenarioSpec(read->spec), canonical);
  EXPECT_EQ(DatasetKey(read->spec.dataset), DatasetKey(spec->dataset));
}

// ---------------------------------------------------------------------------
// Grid expansion.
// ---------------------------------------------------------------------------

TEST(ExpandGridTest, CrossProductOrderIsAxisMajorMethodMinor) {
  ScenarioSpec spec = TinySpec();
  spec.axes.push_back({AxisKind::kK, {2, 3}});
  std::vector<SweepCell> cells = ExpandGrid(spec);
  // 3 theta × 2 k × 3 methods.
  ASSERT_EQ(cells.size(), 18u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, static_cast<int>(i));
  }
  // First block: theta=-0.05, k=2, methods in spec order.
  EXPECT_EQ(cells[0].axis_values, (std::vector<double>{-0.05, 2}));
  EXPECT_EQ(cells[0].method, "components");
  EXPECT_EQ(cells[1].method, "pure-greedy");
  EXPECT_EQ(cells[2].method, "mixed-greedy");
  // Second axis advances fastest.
  EXPECT_EQ(cells[3].axis_values, (std::vector<double>{-0.05, 3}));
  EXPECT_EQ(cells[6].axis_values, (std::vector<double>{0.0, 2}));
  EXPECT_EQ(cells.back().axis_values, (std::vector<double>{0.05, 3}));
  EXPECT_EQ(cells.back().method, "mixed-greedy");
}

TEST(CellSeedTest, DistinctAndStable) {
  EXPECT_EQ(CellSeed(7, 0), CellSeed(7, 0));
  EXPECT_NE(CellSeed(7, 0), CellSeed(7, 1));
  EXPECT_NE(CellSeed(7, 0), CellSeed(8, 0));
}

// ---------------------------------------------------------------------------
// JSON writer.
// ---------------------------------------------------------------------------

TEST(JsonWriterTest, RendersDeterministically) {
  JsonValue doc = JsonValue::Object();
  doc.Set("b_first", JsonValue::Int(1));
  doc.Set("a_second", JsonValue::Str("x\"y\n"));
  JsonValue arr = JsonValue::Array();
  arr.Add(JsonValue::Bool(true)).Add(JsonValue::Null()).Add(JsonValue::Double(0.1));
  doc.Set("arr", std::move(arr));
  EXPECT_EQ(doc.Dump(0),
            "{\"b_first\": 1,\"a_second\": \"x\\\"y\\n\",\"arr\": "
            "[true,null,0.1]}");
  // Insertion order survives indented rendering too.
  std::string pretty = doc.Dump(2);
  EXPECT_LT(pretty.find("b_first"), pretty.find("a_second"));
}

TEST(JsonWriterTest, DoublesRoundTripThroughShortestForm) {
  for (double value : {0.1, -0.05, 1e6, 1.0 / 3.0, 41089.25, 5.0, 1e-12}) {
    std::string text = FormatDoubleShortest(value);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), value) << text;
  }
  // Integral doubles keep a decimal point so the JSON field type is stable.
  EXPECT_EQ(FormatDoubleShortest(5.0), "5.0");
  EXPECT_EQ(FormatDoubleShortest(0.0), "0.0");
}

// ---------------------------------------------------------------------------
// Artifact structure.
// ---------------------------------------------------------------------------

TEST(ArtifactTest, CellsCarryGainsHistogramsAndStats) {
  ScenarioSpec spec = TinySpec();
  SweepResult result = RunFullSweep(spec);
  ASSERT_EQ(result.cells.size(), 9u);
  EXPECT_GT(result.num_users, 0);
  EXPECT_GT(result.base_total_wtp, 0.0);
  for (const SweepCellResult& cell : result.cells) {
    EXPECT_GT(cell.revenue, 0.0);
    EXPECT_GT(cell.coverage, 0.0);
    EXPECT_LE(cell.coverage, 1.0 + 1e-9);
    // The spec lists "components", so every cell has a gain baseline.
    EXPECT_TRUE(cell.has_gain);
    EXPECT_GE(cell.gain_over_components, -1e-9);
    std::int64_t histogram_total = 0;
    for (std::int64_t count : cell.bundle_size_histogram) {
      histogram_total += count;
    }
    EXPECT_EQ(histogram_total, cell.num_offers);
    if (cell.cell.method == "components") {
      EXPECT_DOUBLE_EQ(cell.gain_over_components, 0.0);
      EXPECT_EQ(cell.bundle_size_histogram.size(), 1u);  // All singletons.
    }
  }

  std::string json = SweepArtifactJson(result);
  EXPECT_NE(json.find("\"schema\": \"bundlemine.sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"gain_over_components\""), std::string::npos);
  // Timings stay out of the deterministic artifact by default...
  EXPECT_EQ(json.find("wall_seconds"), std::string::npos);
  // ...and appear when explicitly requested.
  ArtifactOptions with_timings;
  with_timings.include_timings = true;
  EXPECT_NE(SweepArtifactJson(result, with_timings).find("wall_seconds"),
            std::string::npos);
}

TEST(ArtifactTest, GainOmittedWithoutComponentsBaseline) {
  ScenarioSpec spec = TinySpec();
  spec.methods = {"pure-greedy", "mixed-greedy"};
  SweepResult result = RunFullSweep(spec);
  for (const SweepCellResult& cell : result.cells) {
    EXPECT_FALSE(cell.has_gain);
  }
  EXPECT_EQ(SweepArtifactJson(result).find("gain_over_components"),
            std::string::npos);
}

}  // namespace
}  // namespace bundlemine
