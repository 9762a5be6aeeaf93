#include "api/engine.h"

#include <fstream>
#include <limits>
#include <sstream>

#include "core/bundler_registry.h"
#include "data/generator.h"
#include "data/wtp_matrix.h"
#include "market/market_stream.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace bundlemine {
namespace {

std::string JoinStrings(const std::vector<std::string>& parts,
                        const char* separator) {
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) out += separator;
    out += part;
  }
  return out;
}

std::string MethodKeyList() { return JoinStrings(MethodKeys(), ", "); }

// The most items `method`'s solver takes, or 0 for no limit.
int ItemLimit(const std::string& method) {
  const Method* row = FindMethod(method);
  return row == nullptr ? 0 : row->item_limit;
}

// INVALID_ARGUMENT when `num_items` exceeds `method`'s item limit (the
// set-packing methods enumerate all 2^N bundles).
Status CheckItemLimit(const std::string& method, int num_items) {
  const int limit = ItemLimit(method);
  if (limit > 0 && num_items > limit) {
    return Status::InvalidArgument(
        StrFormat("method '%s' takes at most %d items; the dataset has %d",
                  method.c_str(), limit, num_items));
  }
  return Status::Ok();
}

Status ValidateDataset(const DatasetSpec& spec) {
  std::string diagnostic;
  if (!ValidateDatasetSpec(spec, &diagnostic)) {
    return Status::InvalidArgument("invalid dataset: " + diagnostic);
  }
  return Status::Ok();
}

Status ValidateShard(int shard_index, int shard_count) {
  if (shard_count < 1 || shard_index < 0 || shard_index >= shard_count) {
    return Status::InvalidArgument(
        StrFormat("bad shard %d/%d (need 0 <= index < count)", shard_index,
                  shard_count));
  }
  return Status::Ok();
}

// The cache namespace of everything derived from market `id`.
std::string MarketNamespace(const std::string& id) { return "market:" + id; }

}  // namespace

std::string DatasetCacheKey(const DatasetSpec& spec) { return DatasetKey(spec); }

Engine::Engine(const Options& options)
    : options_(options),
      datasets_(options.dataset_cache_capacity),
      wtps_(options.wtp_cache_capacity),
      itemsets_(options.wtp_cache_capacity),
      resolves_(options.resolve_cache_capacity) {}

std::shared_ptr<const RatingsDataset> Engine::DatasetFor(
    const DatasetSpec& spec, bool* hit) {
  return datasets_.GetOrCompute(
      DatasetCacheKey(spec), "",
      [&spec] {
        return std::make_shared<const RatingsDataset>(MaterializeDataset(spec));
      },
      hit);
}

std::shared_ptr<const WtpMatrix> Engine::WtpFor(const std::string& ns,
                                                const std::string& version,
                                                const RatingsDataset& dataset,
                                                double lambda) {
  // FormatDoubleShortest round-trips, so distinct λ never collide.
  return wtps_.GetOrCompute(
      ns, version + "lambda=" + FormatDoubleShortest(lambda),
      [&dataset, lambda] {
        return std::make_shared<const WtpMatrix>(
            WtpMatrix::FromRatings(dataset, lambda));
      });
}

ItemsetSource Engine::ItemsetsFor(std::string ns, std::string version) {
  return [this, ns = std::move(ns), version = std::move(version)](
             int support, const ItemsetMiner& mine) {
    const std::string key = StrFormat("%ssupport=%d", version.c_str(), support);
    return itemsets_.GetOrCompute(ns, key, mine);
  };
}

void Engine::EvictMarketCaches(const std::string& market_id) {
  const std::string ns = MarketNamespace(market_id);
  resolves_.DropNamespace(ns);
  wtps_.DropNamespace(ns);
  itemsets_.DropNamespace(ns);
}

Status ValidateMethodKey(const std::string& method) {
  if (FindMethod(method) == nullptr) {
    return Status::NotFound(StrFormat("unknown method key '%s' (valid: %s)",
                                      method.c_str(),
                                      MethodKeyList().c_str()));
  }
  return Status::Ok();
}

StatusOr<SolveResponse> Engine::Solve(const SolveRequest& request) {
  if (Status method = ValidateMethodKey(request.method); !method.ok()) {
    return method;
  }

  // Resolve the problem: caller-owned, or materialized from a dataset
  // reference. The derived WTP matrix must outlive the solve only — offers
  // copy everything they need.
  BundleConfigProblem problem;
  std::shared_ptr<const RatingsDataset> dataset_holder;
  std::shared_ptr<const WtpMatrix> wtp_holder;
  ResolveHints hints;
  if (request.problem != nullptr) {
    if (request.problem->wtp == nullptr) {
      return Status::InvalidArgument("SolveRequest problem has no WTP matrix");
    }
    problem = *request.problem;
  } else if (request.dataset.has_value()) {
    const DatasetSpec& spec = *request.dataset;
    if (Status valid = ValidateDataset(spec); !valid.ok()) return valid;
    std::string diagnostic;
    if (!ValidateProblemKnobs(request.theta, request.max_bundle_size,
                              request.price_levels, &diagnostic)) {
      return Status::InvalidArgument("invalid problem: " + diagnostic);
    }
    dataset_holder = DatasetFor(spec);
    wtp_holder =
        WtpFor(DatasetCacheKey(spec), "", *dataset_holder, spec.lambda);
    hints.itemsets = ItemsetsFor(DatasetCacheKey(spec), "");
    problem.wtp = wtp_holder.get();
    problem.theta = request.theta;
    problem.max_bundle_size = request.max_bundle_size;
    problem.price_levels = request.price_levels;
  } else {
    return Status::InvalidArgument(
        "SolveRequest needs a problem or a dataset reference");
  }
  if (Status limit = CheckItemLimit(request.method, problem.wtp->num_items());
      !limit.ok()) {
    return limit;
  }

  SolveContext::Options context_options;
  context_options.num_threads = EffectiveThreads(request.options);
  context_options.seed = request.options.seed;
  context_options.deadline_seconds = request.options.deadline_seconds;
  SolveContext context(context_options);
  context.set_resolve_hints(&hints);

  WallTimer timer;
  SolveResponse response;
  response.solution = SolveMethod(request.method, std::move(problem), context);
  response.wall_seconds = timer.Seconds();
  response.stats = context.stats();
  return response;
}

std::vector<StatusOr<SolveResponse>> Engine::SolveBatch(
    const std::vector<SolveRequest>& requests) {
  std::vector<StatusOr<SolveResponse>> responses;
  responses.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    responses.push_back(Status::Internal("batch slot not filled"));
  }
  // Requests are the unit of parallelism; each solves with the serial
  // inner path so the result depends only on the request, not on which
  // worker ran it (mirroring the sweep runner's per-cell contract). Callers
  // wanting parallel candidate evaluation inside one big solve use Solve.
  ThreadPool::Shared().ParallelFor(
      requests.size(), options_.threads, [&](std::size_t index, int /*slot*/) {
        SolveRequest request = requests[index];
        request.options.threads = 1;
        responses[index] = Solve(request);
      });
  return responses;
}

StatusOr<SweepResponse> Engine::Sweep(const SweepRequest& request) {
  std::string diagnostic;
  if (!ValidateScenarioSpec(request.spec, &diagnostic)) {
    // Unknown methods are the most common authoring mistake; append the
    // method table's key list so the error is self-serve.
    if (diagnostic.find("unknown method") != std::string::npos) {
      diagnostic += " (valid: " + MethodKeyList() + ")";
    }
    return Status::InvalidArgument("invalid scenario: " + diagnostic);
  }
  if (Status shard = ValidateShard(request.shard_index, request.shard_count);
      !shard.ok()) {
    return shard;
  }

  WallTimer timer;
  std::vector<SweepCell> cells = ExpandGrid(request.spec);
  const int grid_cells = static_cast<int>(cells.size());
  // Every shard of a grid refuses alike, before any cell runs; the runner
  // finds the datasets checked here in the cache.
  for (const SweepCell& cell : cells) {
    if (ItemLimit(cell.method) == 0) continue;
    const int num_items =
        DatasetFor(CellDatasetSpec(request.spec, cell))->num_items();
    if (Status limit = CheckItemLimit(cell.method, num_items); !limit.ok()) {
      return limit;
    }
  }
  cells = FilterShard(std::move(cells), request.shard_index, request.shard_count);

  SweepResponse response;
  response.grid_cells = grid_cells;
  std::shared_ptr<const RatingsDataset> dataset =
      DatasetFor(request.spec.dataset, &response.dataset_cache_hit);

  SweepRunnerOptions runner_options;
  runner_options.threads = EffectiveThreads(request.options);
  runner_options.deadline_seconds = request.options.deadline_seconds;
  runner_options.capture_traces = request.capture_traces;
  // Dataset-axis cells regenerate their datasets through the Engine's keyed
  // cache, so repeated sweeps over the same scalability grid materialize
  // each point once.
  DatasetProvider provider = [this](const DatasetSpec& cell_dataset) {
    return DatasetFor(cell_dataset);
  };
  // Derived WTP matrices go through the λ-keyed cache, so repeated sweeps
  // over the same grid skip the FromRatings pass as well as the generation.
  WtpProvider wtp_provider = [this](const DatasetSpec& cell_dataset,
                                    const RatingsDataset& cell_data,
                                    double lambda) {
    return WtpFor(DatasetCacheKey(cell_dataset), "", cell_data, lambda);
  };
  // Freq cells over one dataset mine once: each cell's hints name its
  // dataset to the itemset cache.
  std::vector<ResolveHints> hints(static_cast<std::size_t>(grid_cells));
  for (const SweepCell& cell : cells) {
    hints[static_cast<std::size_t>(cell.index)].itemsets = ItemsetsFor(
        DatasetCacheKey(CellDatasetSpec(request.spec, cell)), "");
  }
  runner_options.context_hook = [&hints](int cell_index,
                                         SolveContext& context) {
    context.set_resolve_hints(&hints[static_cast<std::size_t>(cell_index)]);
  };
  response.result = RunSweepCells(request.spec, cells, *dataset,
                                  runner_options, provider, wtp_provider);
  response.result.wall_seconds = timer.Seconds();
  return response;
}

StatusOr<std::shared_ptr<const RatingsDataset>> Engine::Dataset(
    const DatasetSpec& spec) {
  if (Status valid = ValidateDataset(spec); !valid.ok()) return valid;
  return DatasetFor(spec);
}

StatusOr<ResolveResponse> Engine::Resolve(const ResolveRequest& request) {
  if (request.market == nullptr) {
    return Status::InvalidArgument("ResolveRequest needs a market stream");
  }
  std::string diagnostic;
  if (!ValidateScenarioSpec(request.spec, &diagnostic)) {
    if (diagnostic.find("unknown method") != std::string::npos) {
      diagnostic += " (valid: " + MethodKeyList() + ")";
    }
    return Status::InvalidArgument("invalid scenario: " + diagnostic);
  }
  if (HasDatasetAxes(request.spec)) {
    return Status::InvalidArgument(
        "resolve spec cannot carry dataset axes — the market stream supplies "
        "the dataset");
  }
  if (!request.market->loaded()) {
    return Status::InvalidArgument(
        "market stream '" + request.market->id() +
        "' has no resident dataset — send a load first");
  }

  WallTimer timer;
  MarketStream::Snapshot snap = request.market->TakeSnapshot();
  for (const std::string& method : request.spec.methods) {
    if (Status limit = CheckItemLimit(method, snap.dataset->num_items());
        !limit.ok()) {
      return limit;
    }
  }
  // Deadline-limited solves are wall-clock-dependent; never cache them.
  const bool cacheable = request.options.deadline_seconds == 0.0 &&
                         options_.resolve_cache_capacity > 0;
  const std::string market_ns = MarketNamespace(request.market->id());
  const std::string spec_key = "spec=" + FormatScenarioSpec(request.spec);

  // Pull the prior solver state out of the cache line (or answer outright
  // when the market hasn't moved). The solver cells are *moved* out so the
  // solve below runs with no cache lock held.
  std::uint64_t solver_version = 0;
  std::vector<MatchingPairCache> solver_cells;
  ResolveResponse response;
  if (resolves_.Visit(market_ns, spec_key, [&](ResolveEntry& entry) {
        if (cacheable && entry.version == snap.version) {
          response = entry.response;
          return true;
        }
        solver_version = entry.version;
        solver_cells.swap(entry.solver_cells);  // Leaves the line's empty.
        return false;
      })) {
    response.response_cache_hit = true;
    return response;
  }

  std::vector<SweepCell> cells = ExpandGrid(request.spec);
  response.grid_cells = static_cast<int>(cells.size());
  response.market_version = snap.version;

  // Per-cell hints: the maintained transaction view and the itemsets of
  // this market version always (cached per version, so reused only while
  // the data didn't move), the prior pair outcomes + dirty-item mask when a
  // previous resolve of this key left them, and a fill sink when this
  // solve's outcomes are worth keeping. Resolve always runs the full grid,
  // so cell.index indexes `hints`.
  const std::string version = "v" + std::to_string(snap.version) + ";";
  std::vector<char> dirty;
  if (!solver_cells.empty()) {
    dirty = request.market->ItemsTouchedSince(solver_version);
  }
  std::vector<MatchingPairCache> fills(cells.size());
  std::vector<ResolveHints> hints(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    hints[i].transactions = snap.transactions.get();
    hints[i].itemsets = ItemsetsFor(market_ns, version);
    if (cacheable) hints[i].fill = &fills[i];
    if (i < solver_cells.size()) {
      hints[i].prior = &solver_cells[i];
      hints[i].dirty_items = &dirty;
    }
  }

  SweepRunnerOptions runner_options;
  runner_options.threads = EffectiveThreads(request.options);
  runner_options.deadline_seconds = request.options.deadline_seconds;
  runner_options.context_hook = [&hints](int cell_index,
                                         SolveContext& context) {
    context.set_resolve_hints(&hints[static_cast<std::size_t>(cell_index)]);
  };
  // The market snapshot is the dataset (dataset axes were rejected above, so
  // every cell borrows the base).
  WtpProvider wtp_provider = [this, &market_ns, &version](
                                 const DatasetSpec&, const RatingsDataset& data,
                                 double lambda) {
    return WtpFor(market_ns, version, data, lambda);
  };
  response.result = RunSweepCells(request.spec, cells, *snap.dataset,
                                  runner_options, nullptr, wtp_provider);
  response.result.wall_seconds = timer.Seconds();
  for (const SweepCellResult& cell : response.result.cells) {
    response.pairs_evaluated += cell.stats.pairs_evaluated;
    response.pairs_reused += cell.stats.pairs_reused;
  }

  if (cacheable) {
    resolves_.Upsert(market_ns, spec_key, [&](ResolveEntry& entry) {
      entry.version = snap.version;
      entry.solver_cells = std::move(fills);
      entry.response = response;
    });
  }
  return response;
}

StatusOr<ScenarioSpec> ResolveScenarioSpec(const std::string& argument) {
  if (argument.empty()) {
    return Status::InvalidArgument(
        "empty scenario argument (pass a preset name, 'key=value;...' text, "
        "or @path)");
  }

  ScenarioSpec spec;
  if (argument[0] == '@') {
    const std::string path = argument.substr(1);
    std::ifstream in(path);
    if (!in.good()) {
      return Status::NotFound("cannot read spec file '" + path + "'");
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string diagnostic;
    std::optional<ScenarioSpec> parsed =
        ParseScenarioSpec(buffer.str(), &diagnostic);
    if (!parsed) {
      return Status::InvalidArgument("cannot parse spec file '" + path +
                                     "': " + diagnostic);
    }
    spec = std::move(*parsed);
  } else if (const ScenarioSpec* preset = FindBuiltinScenario(argument)) {
    spec = *preset;
  } else if (argument.find('=') != std::string::npos) {
    std::string diagnostic;
    std::optional<ScenarioSpec> parsed = ParseScenarioSpec(argument, &diagnostic);
    if (!parsed) {
      return Status::InvalidArgument("cannot parse spec: " + diagnostic);
    }
    spec = std::move(*parsed);
  } else {
    std::vector<std::string> names;
    for (const ScenarioSpec& builtin : BuiltinScenarios()) {
      names.push_back(builtin.name);
    }
    return Status::NotFound(StrFormat(
        "unknown scenario preset '%s' (presets: %s; or pass inline "
        "'key=value;...' text or @path)",
        argument.c_str(), JoinStrings(names, ", ").c_str()));
  }

  if (spec.name.empty()) spec.name = "adhoc";
  std::string diagnostic;
  if (!ValidateScenarioSpec(spec, &diagnostic)) {
    return Status::InvalidArgument("invalid scenario: " + diagnostic);
  }
  return spec;
}

StatusOr<std::pair<int, int>> ParseShard(const std::string& text) {
  const Status bad = Status::InvalidArgument(
      "bad --shard value '" + text + "' (expected i/n with 0 <= i < n)");
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) return bad;
  std::optional<long long> index = ParseInt(text.substr(0, slash));
  std::optional<long long> count = ParseInt(text.substr(slash + 1));
  if (!index || !count) return bad;
  if (*count < 1 || *count > std::numeric_limits<int>::max() || *index < 0 ||
      *index >= *count) {
    return bad;  // Range check before the int narrowing below.
  }
  return std::make_pair(static_cast<int>(*index), static_cast<int>(*count));
}

}  // namespace bundlemine
