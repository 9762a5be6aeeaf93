// configurator_cli — an operational command-line front end for the library,
// built entirely on the bundlemine::Engine request/response API.
//
// Loads a ratings dataset from CSV (or generates a synthetic one), runs any
// bundling method in the method table, prints the market summary with the
// welfare decomposition from the rational-choice simulator, and optionally
// exports the priced configuration to CSV for downstream systems. User errors
// (unknown method keys, bad specs, unreadable files) come back from the
// Engine as typed Status values and exit 1 with a message listing the valid
// alternatives — never a stack-trace abort.
//
//   ./configurator_cli --scale=small --method=mixed-matching --theta=0
//       --out=config.csv
//   ./configurator_cli --data=/path/to/stem --method=pure-greedy --k=3
//   ./configurator_cli --list-methods
//
// Sweep mode runs a whole scenario grid through Engine::Sweep instead of a
// single solve. --spec accepts a built-in preset name, an inline textual
// spec, or @path to load a spec file; --threads parallelizes across cells
// (bit-identical output); --shard=i/n runs one slice of the grid for
// multi-process sweeps; --json leaves the machine-readable artifact behind.
//
//   ./configurator_cli --sweep --list-scenarios
//   ./configurator_cli --sweep --spec=fig2-theta --threads=8 --json=out.json
//   ./configurator_cli --sweep --spec=@sweep.scenario --shard=0/4
//   ./configurator_cli --sweep --threads=4
//       --spec='scale=tiny;seed=7;methods=components,mixed-greedy;axis:theta=-0.1,0,0.1'

#include <algorithm>
#include <cstdio>

#include "api/engine.h"
#include "core/bundler_registry.h"
#include "core/market_simulator.h"
#include "core/metrics.h"
#include "core/solution_io.h"
#include "data/dataset_io.h"
#include "data/generator.h"
#include "data/wtp_matrix.h"
#include "scenario/artifact_writer.h"
#include "scenario/scenario_spec.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/table_printer.h"

using namespace bundlemine;

namespace {

// Prints a Status as a CLI error line. Returns 1 so call sites can
// `return FailWith(status);`.
int FailWith(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.message().c_str());
  return 1;
}

int ListScenarios() {
  for (const ScenarioSpec& spec : BuiltinScenarios()) {
    std::string axes;
    for (const ScenarioAxis& axis : spec.axes) {
      if (!axes.empty()) axes += " x ";
      axes += AxisKindName(axis.kind) + "[" +
              StrFormat("%zu", axis.values.size()) + "]";
    }
    std::printf("%-20s %-12s %s\n   %s\n", spec.name.c_str(), axes.c_str(),
                spec.description.c_str(),
                ("methods: " + StrFormat("%zu", spec.methods.size())).c_str());
  }
  return 0;
}

int ListAxes() {
  for (AxisKind kind : AllAxisKinds()) {
    std::printf("axis:%-19s %s\n", AxisKindName(kind).c_str(),
                AxisKindDescription(kind).c_str());
  }
  return 0;
}

int RunSweepMode(Engine& engine, const FlagSet& flags) {
  if (flags.GetBool("list-scenarios")) return ListScenarios();
  if (flags.GetBool("list-axes")) return ListAxes();

  const std::string spec_arg = flags.GetString("spec");
  if (spec_arg.empty()) {
    std::fprintf(stderr,
                 "error: sweep mode needs --spec=<preset|inline spec|@path> "
                 "(--list-scenarios shows presets)\n");
    return 1;
  }
  StatusOr<ScenarioSpec> spec = ResolveScenarioSpec(spec_arg);
  if (!spec.ok()) return FailWith(spec.status());
  for (const std::string& warning : ScenarioSpecWarnings(*spec)) {
    std::fprintf(stderr, "warning: %s\n", warning.c_str());
  }

  SweepRequest request;
  request.spec = *spec;
  request.options.threads = static_cast<int>(flags.GetInt("threads"));
  request.options.deadline_seconds = flags.GetDouble("deadline");
  if (!flags.GetString("shard").empty()) {
    StatusOr<std::pair<int, int>> shard = ParseShard(flags.GetString("shard"));
    if (!shard.ok()) return FailWith(shard.status());
    request.shard_index = shard->first;
    request.shard_count = shard->second;
  }
  StatusOr<SweepResponse> response = engine.Sweep(request);
  if (!response.ok()) return FailWith(response.status());
  const SweepResult& result = response->result;

  std::printf("scenario '%s': scale=%s seed=%llu | %d users x %d items, "
              "%lld ratings | %zu of %d cells (shard %d/%d) in %.2fs "
              "(threads=%d)\n",
              request.spec.name.c_str(), request.spec.dataset.profile.c_str(),
              static_cast<unsigned long long>(request.spec.dataset.seed),
              result.num_users, result.num_items,
              static_cast<long long>(result.num_ratings), result.cells.size(),
              response->grid_cells, request.shard_index, request.shard_count,
              result.wall_seconds, request.options.threads);

  TablePrinter table("sweep cells");
  std::vector<std::string> header;
  for (const ScenarioAxis& axis : request.spec.axes) {
    header.push_back(AxisKindName(axis.kind));
  }
  header.insert(header.end(),
                {"method", "revenue", "coverage", "gain", "offers", "hist"});
  table.SetHeader(header);
  for (const SweepCellResult& cell : result.cells) {
    std::vector<std::string> row;
    for (double v : cell.cell.axis_values) row.push_back(FormatDoubleShortest(v));
    row.push_back(cell.cell.method);
    row.push_back(StrFormat("%.2f", cell.revenue));
    row.push_back(StrFormat("%.1f%%", 100 * cell.coverage));
    row.push_back(cell.has_gain
                      ? StrFormat("%+.1f%%", 100 * cell.gain_over_components)
                      : std::string("-"));
    row.push_back(StrFormat("%d", cell.num_offers));
    // Offer counts by bundle size, truncated: unconstrained sweeps can
    // produce bundles spanning dozens of sizes (the JSON keeps it all).
    std::string hist;
    const std::size_t hist_shown =
        std::min<std::size_t>(cell.bundle_size_histogram.size(), 8);
    for (std::size_t i = 0; i < hist_shown; ++i) {
      if (!hist.empty()) hist += "/";
      hist += StrFormat("%lld",
                        static_cast<long long>(cell.bundle_size_histogram[i]));
    }
    if (cell.bundle_size_histogram.size() > hist_shown) hist += "/..";
    row.push_back(hist);
    table.AddRow(row);
  }
  table.Print();

  if (!flags.GetString("json").empty()) {
    ArtifactOptions artifact_options;
    artifact_options.include_timings = flags.GetBool("timings");
    if (!WriteSweepArtifact(result, flags.GetString("json"), artifact_options)) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   flags.GetString("json").c_str());
      return 1;
    }
    std::printf("sweep artifact written to %s\n", flags.GetString("json").c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.Define("data", "", "dataset stem (loads <stem>.ratings.csv/.prices.csv); "
                           "empty = synthetic");
  flags.Define("scale", "small", "synthetic profile: tiny|small|medium|paper");
  flags.Define("seed", "42", "synthetic generator seed");
  flags.Define("method", "mixed-matching",
               "bundling method key (--list-methods shows all)");
  flags.Define("list-methods", "false",
               "print the registered method keys and exit");
  flags.Define("lambda", "1.25", "ratings → WTP conversion factor");
  flags.Define("theta", "0", "bundling coefficient");
  flags.Define("k", "0", "max bundle size (0 = unconstrained)");
  flags.Define("levels", "100", "price grid resolution (0 = exact)");
  flags.Define("threads", "1", "worker threads for candidate evaluation "
                               "(matching methods only; results are "
                               "identical at any count)");
  flags.Define("deadline", "0",
               "wall-clock budget in seconds (0 = none; honored by the "
               "matching/greedy/freq solvers, which stop refining and return "
               "the best configuration found)");
  flags.Define("out", "", "optional CSV path for the priced configuration");
  flags.Define("top", "10", "number of bundles to print");
  flags.Define("sweep", "false",
               "run a scenario sweep through the Engine instead of a single "
               "solve");
  flags.Define("spec", "",
               "sweep scenario: a built-in preset name, an inline "
               "'key=value;...' spec, or @path to load a spec file (see "
               "--list-scenarios). The spec alone defines the sweep's "
               "dataset and problem knobs — the single-solve flags "
               "(--scale/--seed/--theta/...) do not apply; customize via "
               "spec keys instead");
  flags.Define("shard", "",
               "sweep mode: run only shard i of n ('0/2'); cells are "
               "filtered by stable grid index, so the shards partition the "
               "grid exactly");
  flags.Define("list-scenarios", "false",
               "print the built-in scenario presets and exit");
  flags.Define("list-axes", "false",
               "print the sweepable axis kinds (problem knobs, dataset axes, "
               "method-config axes) and exit");
  flags.Define("json", "", "sweep mode: artifact JSON output path");
  flags.Define("timings", "false",
               "sweep mode: include wall times in the JSON artifact (breaks "
               "byte-identity across runs)");
  flags.Parse(argc, argv);

  Engine::Options engine_options;
  engine_options.threads = static_cast<int>(flags.GetInt("threads"));
  Engine engine(engine_options);

  if (flags.GetBool("sweep") || flags.GetBool("list-scenarios") ||
      flags.GetBool("list-axes")) {
    return RunSweepMode(engine, flags);
  }

  if (flags.GetBool("list-methods")) {
    for (const std::string& key : MethodKeys()) {
      std::printf("%-18s %s\n", key.c_str(), MethodDisplayName(key).c_str());
    }
    return 0;
  }
  // Reject a method typo before spending seconds on dataset work.
  if (Status method = ValidateMethodKey(flags.GetString("method"));
      !method.ok()) {
    return FailWith(method);
  }

  // The dataset and problem flags get the knob domains every other front
  // end applies.
  DatasetSpec dataset_spec;
  dataset_spec.profile = flags.GetString("scale");
  dataset_spec.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  dataset_spec.lambda = flags.GetDouble("lambda");
  const long long k = flags.GetInt("k");
  const long long levels = flags.GetInt("levels");
  if (std::string invalid;
      !ValidateDatasetSpec(dataset_spec, &invalid) ||
      !ValidateProblemKnobs(flags.GetDouble("theta"), k, levels, &invalid)) {
    return FailWith(Status::InvalidArgument(invalid));
  }
  BundleConfigProblem problem;
  problem.theta = flags.GetDouble("theta");
  problem.max_bundle_size = static_cast<int>(k);
  problem.price_levels = static_cast<int>(levels);

  // ---- Data. ----
  RatingsDataset dataset;
  if (!flags.GetString("data").empty()) {
    auto loaded = LoadDataset(flags.GetString("data"));
    if (!loaded) {
      return FailWith(Status::NotFound(
          "cannot load dataset stem '" + flags.GetString("data") +
          "' (expected <stem>.ratings.csv and <stem>.prices.csv)"));
    }
    dataset = std::move(*loaded);
  } else {
    dataset = GenerateAmazonLike(
        ProfileByName(dataset_spec.profile, dataset_spec.seed));
  }
  WtpMatrix wtp = WtpMatrix::FromRatings(dataset, dataset_spec.lambda);
  std::printf("dataset: %d consumers x %d items, %zu ratings; total WTP %.2f\n",
              wtp.num_users(), wtp.num_items(), dataset.ratings().size(),
              wtp.TotalWtp());

  // ---- Solve through the Engine. ----
  problem.wtp = &wtp;

  SolveRequest request;
  request.problem = &problem;
  request.options.threads = static_cast<int>(flags.GetInt("threads"));
  request.options.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  request.options.deadline_seconds = flags.GetDouble("deadline");

  request.method = "components";
  StatusOr<SolveResponse> components_response = engine.Solve(request);
  if (!components_response.ok()) return FailWith(components_response.status());
  const BundleSolution& components = components_response->solution;

  request.method = flags.GetString("method");
  StatusOr<SolveResponse> solve_response = engine.Solve(request);
  if (!solve_response.ok()) return FailWith(solve_response.status());
  const BundleSolution& solution = solve_response->solution;

  // A dataset on which Components earns nothing has no gain over it.
  const std::string gain =
      components.total_revenue > 0.0
          ? StrFormat("%+.2f%%", 100 * RevenueGain(solution, components))
          : std::string("-");
  std::printf("\n%s: revenue %.2f | coverage %.1f%% | gain %s | %.2fs | "
              "%lld candidates priced%s\n",
              solution.method.c_str(), solution.total_revenue,
              100 * RevenueCoverage(solution, wtp), gain.c_str(),
              solution.solve_seconds,
              static_cast<long long>(solve_response->stats.pairs_evaluated),
              solve_response->stats.deadline_hit ? " (deadline hit)" : "");

  // ---- Welfare decomposition under rational choice. ----
  MarketSimulator simulator(wtp, problem.theta);
  MarketOutcome market = simulator.Evaluate(solution);
  std::printf(
      "rational-choice market: revenue %.2f | consumer surplus %.2f | "
      "deadweight %.2f | %.0f transactions\n",
      market.revenue, market.consumer_surplus, market.deadweight_loss,
      market.transactions);

  // ---- Configuration. ----
  TablePrinter table("configuration (largest bundles first)");
  table.SetHeader({"items", "price", "revenue", "buyers", "kind"});
  std::vector<const PricedBundle*> offers;
  for (const PricedBundle& o : solution.offers) offers.push_back(&o);
  std::sort(offers.begin(), offers.end(),
            [](const PricedBundle* a, const PricedBundle* b) {
              if (a->items.size() != b->items.size()) {
                return a->items.size() > b->items.size();
              }
              return a->revenue > b->revenue;
            });
  long long shown = 0;
  for (const PricedBundle* o : offers) {
    if (shown++ >= flags.GetInt("top")) break;
    table.AddRow({o->items.ToString(), StrFormat("%.2f", o->price),
                  StrFormat("%.2f", o->revenue),
                  StrFormat("%.1f", o->expected_buyers),
                  o->is_component_offer ? "component" : "top-level"});
  }
  table.Print();
  std::printf("(%zu offers total)\n", solution.offers.size());

  if (!flags.GetString("out").empty()) {
    if (SaveSolution(solution, flags.GetString("out"))) {
      std::printf("configuration written to %s\n", flags.GetString("out").c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", flags.GetString("out").c_str());
      return 1;
    }
  }
  return 0;
}
