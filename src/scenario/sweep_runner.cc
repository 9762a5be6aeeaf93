#include "scenario/sweep_runner.h"

#include <algorithm>
#include <map>

#include "core/metrics.h"
#include "core/bundler_registry.h"
#include "data/generator.h"
#include "data/wtp_matrix.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace bundlemine {
namespace {

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Everything one distinct cell dataset carries: the (possibly shared)
// ratings, its post-filter stats, and one WTP matrix per λ any of its cells
// prices against.
struct DatasetEntry {
  std::shared_ptr<const RatingsDataset> dataset;
  DatasetStats stats;
  std::map<double, std::shared_ptr<const WtpMatrix>> wtp_by_lambda;

  const WtpMatrix& WtpFor(double lambda) const {
    auto it = wtp_by_lambda.find(lambda);
    BM_CHECK(it != wtp_by_lambda.end());
    return *it->second;
  }
};

// The datasets and WTP matrices a sweep needs, keyed by DatasetKey. Without
// dataset axes this is a single entry (the borrowed base dataset); each
// dataset-axis point adds its own regenerated entry.
struct SweepData {
  std::map<std::string, DatasetEntry> by_key;
  std::string base_key;

  const DatasetEntry& EntryFor(const std::string& key) const {
    auto it = by_key.find(key);
    BM_CHECK(it != by_key.end());
    return it->second;
  }
};

// Materializes every distinct (dataset, λ) combination the cells need, in
// stable cell order (deterministic regardless of later scheduling). The
// base dataset is borrowed from the caller; dataset-axis entries come from
// `provider` (the Engine's cache) or local generation.
SweepData BuildSweepData(const ScenarioSpec& spec,
                         const std::vector<SweepCell>& cells,
                         const RatingsDataset& base,
                         const DatasetProvider& provider,
                         const WtpProvider& wtp_provider) {
  SweepData data;
  data.base_key = DatasetKey(spec.dataset);

  auto entry_for = [&](const DatasetSpec& dataset_spec) -> DatasetEntry& {
    const std::string key = DatasetKey(dataset_spec);
    auto it = data.by_key.find(key);
    if (it != data.by_key.end()) return it->second;
    DatasetEntry entry;
    if (key == data.base_key) {
      // Borrow the caller's dataset (no-op deleter: `base` outlives the
      // sweep by contract).
      entry.dataset = std::shared_ptr<const RatingsDataset>(
          &base, [](const RatingsDataset*) {});
    } else if (provider) {
      entry.dataset = provider(dataset_spec);
    } else {
      entry.dataset =
          std::make_shared<const RatingsDataset>(MaterializeDataset(dataset_spec));
    }
    entry.stats = entry.dataset->Stats();
    return data.by_key.emplace(key, std::move(entry)).first->second;
  };

  auto derive_wtp = [&](DatasetEntry& entry, const DatasetSpec& dataset_spec,
                        double lambda) {
    if (entry.wtp_by_lambda.count(lambda) != 0) return;
    entry.wtp_by_lambda.emplace(
        lambda, wtp_provider
                    ? wtp_provider(dataset_spec, *entry.dataset, lambda)
                    : std::make_shared<const WtpMatrix>(
                          WtpMatrix::FromRatings(*entry.dataset, lambda)));
  };

  // The base dataset at the base λ always materializes — the sweep-level
  // summary (num_users/num_items/base_total_wtp) reports it.
  derive_wtp(entry_for(spec.dataset), spec.dataset, spec.dataset.lambda);

  for (const SweepCell& cell : cells) {
    const DatasetSpec cell_spec = CellDatasetSpec(spec, cell);
    derive_wtp(entry_for(cell_spec), cell_spec, cell_spec.lambda);
  }
  return data;
}

// Applies the cell's values of the axis-only knobs, which no spec member
// holds: γ and α compose into one adoption model, the rest select method
// variants.
void ApplyAxisOnlyKnobs(const ScenarioSpec& spec, const SweepCell& cell,
                        BundleConfigProblem* problem) {
  bool have_gamma = false, have_alpha = false;
  double gamma = 0.0, alpha = 1.0;
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    double value = cell.axis_values[a];
    switch (spec.axes[a].kind) {
      case AxisKind::kGamma:
        have_gamma = true;
        gamma = value;
        break;
      case AxisKind::kAlpha:
        have_alpha = true;
        alpha = value;
        break;
      case AxisKind::kPruneCoInterest:
        problem->prune_co_interest = value != 0.0;
        break;
      case AxisKind::kPruneStaleEdges:
        problem->prune_stale_edges = value != 0.0;
        break;
      case AxisKind::kMatchingLimit:
        problem->exact_matching_limit = static_cast<int>(value);
        break;
      case AxisKind::kComposition:
        problem->mixed_composition = value != 0.0 ? MixedComposition::kProduct
                                                  : MixedComposition::kMinSlack;
        break;
      case AxisKind::kFreqSupport:
        problem->freq_min_support = value;
        break;
      default:
        break;  // Set through WithAxisValues.
    }
  }
  if (have_gamma) {
    problem->adoption = AdoptionModel::Sigmoid(gamma, alpha);
  } else if (have_alpha) {
    problem->adoption = AdoptionModel::StepWithBias(alpha);
  }
}

void RunCell(const ScenarioSpec& spec, const SweepData& data,
             const SweepRunnerOptions& options, const SweepCell& cell,
             SweepCellResult* result) {
  const ScenarioSpec cell_spec = WithAxisValues(spec, cell.axis_values);
  BundleConfigProblem problem;
  problem.theta = cell_spec.theta;
  problem.max_bundle_size = cell_spec.max_bundle_size;
  problem.price_levels = cell_spec.price_levels;
  problem.adoption = AdoptionModel::Step();
  ApplyAxisOnlyKnobs(spec, cell, &problem);
  const DatasetEntry& entry = data.EntryFor(DatasetKey(cell_spec.dataset));
  const WtpMatrix& wtp = entry.WtpFor(cell_spec.dataset.lambda);
  problem.wtp = &wtp;

  // Fresh context per cell: the seed depends only on the cell index, so
  // results cannot depend on which worker ran the cell. The cell's solver
  // runs at the sweep's full width and picks up whichever workers are idle
  // (solver results are bit-identical at any width).
  SolveContext::Options context_options;
  context_options.num_threads = options.threads;
  context_options.seed = CellSeed(spec.dataset.seed, cell.index);
  context_options.deadline_seconds = options.deadline_seconds;
  SolveContext context(context_options);
  if (options.context_hook) options.context_hook(cell.index, context);

  WallTimer timer;
  BundleSolution solution = SolveMethod(cell.method, problem, context);
  result->wall_seconds = timer.Seconds();

  result->cell = cell;
  result->revenue = solution.total_revenue;
  result->coverage = RevenueCoverage(solution.total_revenue, wtp);
  result->num_users = entry.stats.num_users;
  result->num_items = entry.stats.num_items;
  if (options.capture_traces) result->trace = std::move(solution.trace);
  result->num_offers = static_cast<int>(solution.offers.size());
  for (const PricedBundle& offer : solution.offers) {
    if (offer.is_component_offer) ++result->num_component_offers;
    if (offer.items.empty()) continue;
    std::size_t slot = static_cast<std::size_t>(offer.items.size()) - 1;
    if (result->bundle_size_histogram.size() <= slot) {
      result->bundle_size_histogram.resize(slot + 1, 0);
    }
    ++result->bundle_size_histogram[slot];
  }
  result->stats = context.stats();
}

}  // namespace

std::vector<SweepCell> ExpandGrid(const ScenarioSpec& spec) {
  std::string error;
  BM_CHECK_MSG(ValidateScenarioSpec(spec, &error), "invalid scenario spec");

  std::size_t points = 1;
  for (const ScenarioAxis& axis : spec.axes) points *= axis.values.size();

  std::vector<SweepCell> cells;
  cells.reserve(points * spec.methods.size());
  std::vector<std::size_t> odometer(spec.axes.size(), 0);
  for (std::size_t point = 0; point < points; ++point) {
    std::vector<double> values(spec.axes.size());
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      values[a] = spec.axes[a].values[odometer[a]];
    }
    for (const std::string& method : spec.methods) {
      SweepCell cell;
      cell.index = static_cast<int>(cells.size());
      cell.axis_values = values;
      cell.method = method;
      cells.push_back(std::move(cell));
    }
    // Advance the odometer, last axis fastest.
    for (std::size_t a = spec.axes.size(); a-- > 0;) {
      if (++odometer[a] < spec.axes[a].values.size()) break;
      odometer[a] = 0;
    }
  }
  return cells;
}

std::vector<SweepCell> FilterShard(std::vector<SweepCell> cells,
                                   int shard_index, int shard_count) {
  BM_CHECK_GE(shard_count, 1);
  BM_CHECK_GE(shard_index, 0);
  BM_CHECK_LT(shard_index, shard_count);
  if (shard_count == 1) return cells;
  std::vector<SweepCell> kept;
  for (SweepCell& cell : cells) {
    if (cell.index % shard_count == shard_index) kept.push_back(std::move(cell));
  }
  return kept;
}

std::uint64_t CellSeed(std::uint64_t scenario_seed, int cell_index) {
  return SplitMix64(scenario_seed ^
                    SplitMix64(static_cast<std::uint64_t>(cell_index) + 1));
}

GeneratorConfig DatasetGeneratorConfig(const DatasetSpec& dataset) {
  GeneratorConfig config = ProfileByName(dataset.profile, dataset.seed);
  if (dataset.activity_sigma) config.activity_sigma = *dataset.activity_sigma;
  if (dataset.background_mass) config.background_mass = *dataset.background_mass;
  if (dataset.popularity_exponent) {
    config.item_popularity_exponent = *dataset.popularity_exponent;
  }
  if (dataset.genres_per_user) config.genres_per_user = *dataset.genres_per_user;
  if (dataset.num_users) config.num_users = *dataset.num_users;
  if (dataset.num_items) config.num_items = *dataset.num_items;
  return config;
}

RatingsDataset MaterializeDataset(const DatasetSpec& dataset) {
  RatingsDataset generated = GenerateAmazonLike(DatasetGeneratorConfig(dataset));
  if (!dataset.item_sample) return generated;
  const int n = std::min(*dataset.item_sample, generated.num_items());
  // The sample is a pure function of (seed, sample size): distinct sizes
  // draw distinct samples, the same spec always draws the same one.
  Rng rng(SplitMix64(dataset.seed ^
                     SplitMix64(static_cast<std::uint64_t>(n) + 0x17)));
  return generated.SelectItems(generated.SampleItemIds(n, &rng));
}

DatasetSpec CellDatasetSpec(const ScenarioSpec& spec, const SweepCell& cell) {
  return WithAxisValues(spec, cell.axis_values).dataset;
}

void RecomputeComponentGains(SweepResult* result) {
  // Gains over the "components" cell at the same axis point. The grid lays
  // cells out axis-point-major with methods innermost, so the stable index
  // maps to its axis point by division — which also works when the cells
  // are a shard slice, where a point's cells are no longer contiguous (a
  // method whose components sibling landed in another shard simply reports
  // no gain; the artifact merger recomputes gains after joining shards).
  // Where Components earns nothing (a degenerate dataset), the gain is
  // undefined and reported as none.
  const int block = static_cast<int>(result->spec.methods.size());
  std::map<int, double> components_by_point;
  for (const SweepCellResult& cell : result->cells) {
    if (cell.cell.method == "components") {
      components_by_point.emplace(cell.cell.index / block, cell.revenue);
    }
  }
  for (SweepCellResult& cell : result->cells) {
    auto it = components_by_point.find(cell.cell.index / block);
    if (it == components_by_point.end() || it->second <= 0.0) {
      cell.has_gain = false;
      cell.gain_over_components = 0.0;
      continue;
    }
    cell.has_gain = true;
    cell.gain_over_components = RevenueGain(cell.revenue, it->second);
  }
}

SweepResult RunSweepCells(const ScenarioSpec& spec,
                          const std::vector<SweepCell>& cells,
                          const RatingsDataset& dataset,
                          const SweepRunnerOptions& options,
                          const DatasetProvider& provider,
                          const WtpProvider& wtp_provider) {
  WallTimer total_timer;
  SweepData data = BuildSweepData(spec, cells, dataset, provider, wtp_provider);

  SweepResult result;
  result.spec = spec;
  const DatasetEntry& base = data.EntryFor(data.base_key);
  result.num_users = base.stats.num_users;
  result.num_items = base.stats.num_items;
  result.num_ratings = base.stats.num_ratings;
  result.base_total_wtp = base.WtpFor(spec.dataset.lambda).TotalWtp();
  result.cells.resize(cells.size());

  // Every cell asks for the full width: the shared pool only lends a cell
  // workers that are idle, so while cells outnumber them each runs on its
  // own thread, and as cells finish their workers join the ones still
  // running.
  auto run_cell = [&](std::size_t index, int /*slot*/) {
    RunCell(spec, data, options, cells[index], &result.cells[index]);
  };
  ThreadPool::Shared().ParallelFor(cells.size(), options.threads, run_cell);

  RecomputeComponentGains(&result);

  result.wall_seconds = total_timer.Seconds();
  return result;
}

}  // namespace bundlemine
