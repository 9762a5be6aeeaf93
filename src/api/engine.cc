#include "api/engine.h"

#include <algorithm>
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

std::string RegisteredKeyList() {
  return JoinStrings(BundlerRegistry::Global().Keys(), ", ");
}

Status ValidateShard(int shard_index, int shard_count) {
  if (shard_count < 1 || shard_index < 0 || shard_index >= shard_count) {
    return Status::InvalidArgument(
        StrFormat("bad shard %d/%d (need 0 <= index < count)", shard_index,
                  shard_count));
  }
  return Status::Ok();
}

}  // namespace

std::string DatasetCacheKey(const DatasetSpec& spec) { return DatasetKey(spec); }

Engine::Engine(const Options& options) : options_(options) {}

Engine::~Engine() = default;

std::shared_ptr<const RatingsDataset> Engine::DatasetFor(
    const DatasetSpec& spec, bool* hit) {
  const std::string key = DatasetCacheKey(spec);
  // Generation runs under the lock: concurrent batch requests for the same
  // key then materialize once instead of racing, and distinct keys are rare
  // enough per batch that the serialization is cheap relative to a solve.
  MutexLock lock(cache_mu_);
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (it->key == key) {
      cache_.splice(cache_.begin(), cache_, it);  // Move to MRU position.
      ++cache_hits_;
      if (hit != nullptr) *hit = true;
      return cache_.front().dataset;
    }
  }
  ++cache_misses_;
  if (hit != nullptr) *hit = false;
  auto dataset =
      std::make_shared<const RatingsDataset>(MaterializeDataset(spec));
  if (options_.dataset_cache_capacity == 0) return dataset;
  cache_.push_front(CacheEntry{key, dataset});
  while (cache_.size() > options_.dataset_cache_capacity) cache_.pop_back();
  return dataset;
}

std::shared_ptr<const WtpMatrix> Engine::WtpFor(const DatasetSpec& spec,
                                                const RatingsDataset& dataset,
                                                double lambda) {
  // λ joins the key because DatasetCacheKey deliberately excludes it: one
  // dataset serves many λ points (lambda-axis sweeps), each with its own
  // derived matrix. FormatDoubleShortest round-trips, so distinct λ never
  // collide.
  return WtpForKey(DatasetCacheKey(spec) + ";lambda=" + FormatDoubleShortest(lambda),
                   dataset, lambda);
}

std::shared_ptr<const WtpMatrix> Engine::WtpForKey(const std::string& key,
                                                   const RatingsDataset& dataset,
                                                   double lambda) {
  // Derivation runs under the lock, mirroring DatasetFor: concurrent
  // requests for the same key derive once.
  MutexLock lock(cache_mu_);
  for (auto it = wtp_cache_.begin(); it != wtp_cache_.end(); ++it) {
    if (it->key == key) {
      wtp_cache_.splice(wtp_cache_.begin(), wtp_cache_, it);
      ++wtp_cache_hits_;
      return wtp_cache_.front().wtp;
    }
  }
  ++wtp_cache_misses_;
  auto wtp = std::make_shared<const WtpMatrix>(
      WtpMatrix::FromRatings(dataset, lambda));
  if (options_.wtp_cache_capacity == 0) return wtp;
  wtp_cache_.push_front(WtpCacheEntry{key, wtp});
  while (wtp_cache_.size() > options_.wtp_cache_capacity) {
    wtp_cache_.pop_back();
  }
  return wtp;
}

Engine::CacheStats Engine::dataset_cache_stats() const {
  MutexLock lock(cache_mu_);
  return CacheStats{cache_hits_, cache_misses_, cache_.size()};
}

Engine::CacheStats Engine::wtp_cache_stats() const {
  MutexLock lock(cache_mu_);
  return CacheStats{wtp_cache_hits_, wtp_cache_misses_, wtp_cache_.size()};
}

Engine::CacheStats Engine::resolve_cache_stats() const {
  MutexLock lock(resolve_mu_);
  return CacheStats{resolve_hits_, resolve_misses_, resolve_cache_.size()};
}

void Engine::ClearDatasetCache() {
  MutexLock lock(cache_mu_);
  cache_.clear();
  wtp_cache_.clear();
}

void Engine::EvictMarketCaches(const std::string& market_id) {
  const std::string resolve_prefix = "market:" + market_id + ";";
  const std::string wtp_prefix = "market:" + market_id + "@";
  const auto has_prefix = [](const std::string& key,
                             const std::string& prefix) {
    return key.compare(0, prefix.size(), prefix) == 0;
  };
  {
    MutexLock lock(resolve_mu_);
    for (auto it = resolve_cache_.begin(); it != resolve_cache_.end();) {
      it = has_prefix(it->key, resolve_prefix) ? resolve_cache_.erase(it)
                                               : std::next(it);
    }
  }
  {
    MutexLock lock(cache_mu_);
    for (auto it = wtp_cache_.begin(); it != wtp_cache_.end();) {
      it = has_prefix(it->key, wtp_prefix) ? wtp_cache_.erase(it)
                                           : std::next(it);
    }
  }
}

Status ValidateMethodKey(const std::string& method) {
  if (!BundlerRegistry::Global().Has(method)) {
    return Status::NotFound(StrFormat("unknown method key '%s' (valid: %s)",
                                      method.c_str(),
                                      RegisteredKeyList().c_str()));
  }
  return Status::Ok();
}

Status ValidateDatasetProfile(const std::string& profile) {
  const std::vector<std::string>& profiles = KnownDatasetProfiles();
  if (std::find(profiles.begin(), profiles.end(), profile) == profiles.end()) {
    return Status::InvalidArgument(StrFormat(
        "unknown dataset profile '%s' (valid: %s)", profile.c_str(),
        JoinStrings(profiles, ", ").c_str()));
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
  if (request.problem != nullptr) {
    if (request.problem->wtp == nullptr) {
      return Status::InvalidArgument("SolveRequest problem has no WTP matrix");
    }
    problem = *request.problem;
  } else if (request.dataset.has_value()) {
    const DatasetSpec& spec = *request.dataset;
    if (Status profile = ValidateDatasetProfile(spec.profile); !profile.ok()) {
      return profile;
    }
    if (spec.lambda <= 0.0) {
      return Status::InvalidArgument("dataset lambda must be positive");
    }
    dataset_holder = DatasetFor(spec);
    wtp_holder = WtpFor(spec, *dataset_holder, spec.lambda);
    problem.wtp = wtp_holder.get();
    problem.theta = request.theta;
    problem.max_bundle_size = request.max_bundle_size;
    problem.price_levels = request.price_levels;
  } else {
    return Status::InvalidArgument(
        "SolveRequest needs a problem or a dataset reference");
  }

  SolveContext::Options context_options;
  context_options.num_threads = EffectiveThreads(request.options);
  context_options.seed = request.options.seed;
  context_options.deadline_seconds = request.options.deadline_seconds;
  SolveContext context(context_options);

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
    // registry's key list so the error is self-serve.
    if (diagnostic.find("unknown method") != std::string::npos) {
      diagnostic += " (valid: " + RegisteredKeyList() + ")";
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
    return WtpFor(cell_dataset, cell_data, lambda);
  };
  response.result = RunSweepCells(request.spec, cells, *dataset,
                                  runner_options, provider, wtp_provider);
  response.result.wall_seconds = timer.Seconds();
  return response;
}

StatusOr<std::shared_ptr<const RatingsDataset>> Engine::Dataset(
    const DatasetSpec& spec) {
  if (Status profile = ValidateDatasetProfile(spec.profile); !profile.ok()) {
    return profile;
  }
  if (spec.lambda <= 0.0) {
    return Status::InvalidArgument("dataset lambda must be positive");
  }
  return DatasetFor(spec);
}

StatusOr<ResolveResponse> Engine::Resolve(const ResolveRequest& request) {
  if (request.market == nullptr) {
    return Status::InvalidArgument("ResolveRequest needs a market stream");
  }
  std::string diagnostic;
  if (!ValidateScenarioSpec(request.spec, &diagnostic)) {
    if (diagnostic.find("unknown method") != std::string::npos) {
      diagnostic += " (valid: " + RegisteredKeyList() + ")";
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
  // Deadline-limited solves are wall-clock-dependent; never cache them.
  const bool cacheable = request.options.deadline_seconds == 0.0 &&
                         options_.resolve_cache_capacity > 0;
  const std::string key = "market:" + request.market->id() +
                          ";spec=" + FormatScenarioSpec(request.spec);

  // Pull the prior solver state out of the cache entry (or answer outright
  // when the market hasn't moved). The solver cells are *moved* out so the
  // solve below runs without resolve_mu_ held.
  bool have_solver = false;
  std::uint64_t solver_version = 0;
  std::vector<MatchingPairCache> solver_cells;
  {
    MutexLock lock(resolve_mu_);
    for (auto it = resolve_cache_.begin(); it != resolve_cache_.end(); ++it) {
      if (it->key != key) continue;
      resolve_cache_.splice(resolve_cache_.begin(), resolve_cache_, it);
      ResolveEntry& entry = resolve_cache_.front();
      if (cacheable && entry.has_response &&
          entry.response_version == snap.version) {
        ++resolve_hits_;
        ResolveResponse response = entry.response;
        response.response_cache_hit = true;
        return response;
      }
      have_solver = entry.has_solver;
      solver_version = entry.solver_version;
      solver_cells = std::move(entry.solver_cells);
      entry.has_solver = false;
      entry.solver_cells.clear();
      break;
    }
    ++resolve_misses_;
  }

  std::vector<SweepCell> cells = ExpandGrid(request.spec);
  ResolveResponse response;
  response.grid_cells = static_cast<int>(cells.size());
  response.market_version = snap.version;

  // Per-cell hints: the maintained transaction view always, the prior pair
  // outcomes + dirty-item mask when a previous resolve of this key left
  // them, and a fill sink when this solve's outcomes are worth keeping.
  // Resolve always runs the full grid, so cell.index indexes `hints`.
  std::vector<char> dirty;
  if (have_solver) dirty = request.market->ItemsTouchedSince(solver_version);
  std::vector<MatchingPairCache> fills(cells.size());
  std::vector<ResolveHints> hints(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    hints[i].transactions = snap.transactions.get();
    if (cacheable) hints[i].fill = &fills[i];
    if (have_solver && i < solver_cells.size()) {
      hints[i].prior = &solver_cells[i];
      hints[i].dirty_items = &dirty;
    }
  }

  SweepRunnerOptions runner_options;
  runner_options.threads = EffectiveThreads(request.options);
  runner_options.deadline_seconds = request.options.deadline_seconds;
  runner_options.context_hook = [&hints](int cell_index, SolveContext& context) {
    context.set_resolve_hints(&hints[static_cast<std::size_t>(cell_index)]);
  };
  // The market snapshot is the dataset (dataset axes were rejected above, so
  // every cell borrows the base); WTP matrices are keyed by market id +
  // version so successive resolves at an unchanged λ reuse the derivation
  // only when the data truly didn't move.
  const std::string market_key =
      "market:" + request.market->id() + "@v" + std::to_string(snap.version);
  WtpProvider wtp_provider = [this, &market_key](const DatasetSpec&,
                                                 const RatingsDataset& data,
                                                 double lambda) {
    return WtpForKey(market_key + ";lambda=" + FormatDoubleShortest(lambda),
                     data, lambda);
  };
  response.result = RunSweepCells(request.spec, cells, *snap.dataset,
                                  runner_options, nullptr, wtp_provider);
  response.result.wall_seconds = timer.Seconds();
  for (const SweepCellResult& cell : response.result.cells) {
    response.pairs_evaluated += cell.stats.pairs_evaluated;
    response.pairs_reused += cell.stats.pairs_reused;
  }

  if (cacheable) {
    MutexLock lock(resolve_mu_);
    ResolveEntry* entry = nullptr;
    for (auto it = resolve_cache_.begin(); it != resolve_cache_.end(); ++it) {
      if (it->key == key) {
        resolve_cache_.splice(resolve_cache_.begin(), resolve_cache_, it);
        entry = &resolve_cache_.front();
        break;
      }
    }
    if (entry == nullptr) {
      resolve_cache_.push_front(ResolveEntry{});
      entry = &resolve_cache_.front();
      entry->key = key;
    }
    entry->solver_version = snap.version;
    entry->has_solver = true;
    entry->solver_cells = std::move(fills);
    entry->response_version = snap.version;
    entry->has_response = true;
    entry->response = response;
    while (resolve_cache_.size() > options_.resolve_cache_capacity) {
      resolve_cache_.pop_back();
    }
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
