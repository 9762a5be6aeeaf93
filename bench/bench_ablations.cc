// Ablation studies for the paper's design choices — all run through the
// scenario engine's method-config axes (README, "Scenario engine"), so every
// ablation point is a deterministic grid cell and --json leaves one
// "bundlemine.sweep" artifact per ablation (tagged .levels/.pruning/
// .oracle/.composition):
//   1. price-grid resolution T (paper claims 100 buckets suffice);
//   2-3. round-1 co-interest pruning and later-round stale-edge pruning;
//   4. exact blossom vs greedy matching oracle inside Algorithm 1;
//   5. min-slack vs product composition of the stochastic mixed constraints.
//
// (The former seller-utility welfare ablation was a pricing-kernel loop,
// not a method solve; it lives on in the pricing tests and examples.)

#include "bench_common.h"

using namespace bundlemine;

namespace {

std::string OnOff(double value) { return value != 0.0 ? "on" : "off"; }

std::string Time(const SweepCellResult& cell) {
  return StrFormat("%.2f", cell.wall_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  bench::DefineCommonFlags(&flags);
  flags.Parse(argc, argv);

  // One Engine for all four sweeps: the dataset materializes once into its
  // cache and every ablation reuses it.
  Engine engine(bench::EngineOptions(flags));

  // ---- 1. Grid resolution. ----
  {
    const std::vector<double> levels = {10, 25, 50, 100, 300, 1000, 0};
    ScenarioSpec spec = bench::ScenarioFromFlags(
        flags, "ablation-levels",
        "price-grid resolution T ablation (ablation 1)",
        ScenarioAxis{AxisKind::kLevels, levels}, {"pure-matching"});
    SweepResult result = bench::RunSweep(engine, spec, flags);

    TablePrinter table("Ablation 1 — price-grid resolution T (Pure Matching)");
    table.SetHeader({"T", "coverage", "time (s)"});
    for (std::size_t point = 0; point < levels.size(); ++point) {
      const SweepCellResult& cell = bench::CellAt(result, point, "pure-matching");
      table.AddRow({levels[point] == 0 ? "exact"
                                       : StrFormat("%.0f", levels[point]),
                    bench::Pct(cell.coverage), Time(cell)});
    }
    table.Print();
    std::printf("  paper: \"larger numbers [than 100] do not result in much "
                "higher revenue\"\n");
    bench::WriteSweepJsonTagged(result, flags, "levels");
  }

  // ---- 2 & 3. Pruning strategies. ----
  {
    ScenarioSpec spec = bench::ScenarioFromFlags(
        flags, "ablation-pruning",
        "Algorithm 1 pruning toggles (ablations 2-3)",
        {ScenarioAxis{AxisKind::kPruneCoInterest, {1, 0}},
         ScenarioAxis{AxisKind::kPruneStaleEdges, {1, 0}}},
        {"pure-matching", "mixed-matching"});
    SweepResult result = bench::RunSweep(engine, spec, flags);

    TablePrinter table("Ablations 2-3 — Algorithm 1 pruning strategies");
    table.SetHeader({"co-interest", "stale-edge", "method", "coverage", "time (s)"});
    for (const SweepCellResult& cell : result.cells) {
      table.AddRow({OnOff(cell.cell.axis_values[0]),
                    OnOff(cell.cell.axis_values[1]),
                    MethodDisplayName(cell.cell.method),
                    bench::Pct(cell.coverage), Time(cell)});
    }
    table.Print();
    std::printf("  expected: identical coverage at theta=0 with co-interest "
                "pruning, large time savings\n");
    bench::WriteSweepJsonTagged(result, flags, "pruning");
  }

  // ---- 4. Matching oracle. ----
  {
    ScenarioSpec spec = bench::ScenarioFromFlags(
        flags, "ablation-oracle",
        "exact blossom vs greedy matching oracle (ablation 4)",
        ScenarioAxis{AxisKind::kMatchingLimit, {4000, 0}},
        {"pure-matching", "mixed-matching"});
    SweepResult result = bench::RunSweep(engine, spec, flags);

    TablePrinter table("Ablation 4 — exact blossom vs greedy matching oracle");
    table.SetHeader({"oracle", "strategy", "coverage", "time (s)"});
    for (const SweepCellResult& cell : result.cells) {
      table.AddRow({cell.cell.axis_values[0] == 0 ? "greedy 1/2-approx"
                                                  : "exact blossom",
                    MethodDisplayName(cell.cell.method),
                    bench::Pct(cell.coverage), Time(cell)});
    }
    table.Print();
    bench::WriteSweepJsonTagged(result, flags, "oracle");
  }

  // ---- 5. Mixed stochastic composition. ----
  {
    ScenarioSpec spec = bench::ScenarioFromFlags(
        flags, "ablation-composition",
        "mixed upgrade-constraint composition at gamma = 5 (ablation 5)",
        {ScenarioAxis{AxisKind::kComposition, {0, 1}},
         ScenarioAxis{AxisKind::kGamma, {5}}},
        {"mixed-matching", "mixed-greedy"});
    SweepResult result = bench::RunSweep(engine, spec, flags);

    TablePrinter table(
        "Ablation 5 — mixed upgrade-constraint composition (gamma = 5)");
    table.SetHeader({"composition", "method", "coverage", "time (s)"});
    for (const SweepCellResult& cell : result.cells) {
      table.AddRow({cell.cell.axis_values[0] == 0 ? "min-slack" : "product",
                    MethodDisplayName(cell.cell.method),
                    bench::Pct(cell.coverage), Time(cell)});
    }
    table.Print();
    std::printf("  both recover the deterministic conjunction as gamma grows; "
                "product is the more conservative finite-gamma model\n");
    bench::WriteSweepJsonTagged(result, flags, "composition");
  }
  return 0;
}
