#include "scenario/scenario_spec.h"

#include <cmath>
#include <limits>

#include "core/bundler_registry.h"
#include "util/check.h"
#include "util/json.h"
#include "util/strings.h"

namespace bundlemine {
namespace {

bool KnownProfile(const std::string& name) {
  for (const std::string& p : KnownDatasetProfiles()) {
    if (name == p) return true;
  }
  return false;
}

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

// Splits the spec text into trimmed, non-empty "key=value" tokens.
std::vector<std::string> Tokens(std::string_view text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (c == ';' || c == '\n') {
      tokens.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  tokens.push_back(std::move(current));
  std::vector<std::string> out;
  for (const std::string& t : tokens) {
    std::string trimmed(StripWhitespace(t));
    if (!trimmed.empty()) out.push_back(std::move(trimmed));
  }
  return out;
}

std::string JoinDoubles(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    if (!out.empty()) out += ",";
    out += FormatDoubleShortest(v);
  }
  return out;
}

}  // namespace

std::string AxisKindName(AxisKind kind) {
  switch (kind) {
    case AxisKind::kTheta: return "theta";
    case AxisKind::kK: return "k";
    case AxisKind::kGamma: return "gamma";
    case AxisKind::kAlpha: return "alpha";
    case AxisKind::kLambda: return "lambda";
    case AxisKind::kLevels: return "levels";
    case AxisKind::kNumUsers: return "num_users";
    case AxisKind::kNumItems: return "num_items";
    case AxisKind::kItemSample: return "item-sample";
    case AxisKind::kPruneCoInterest: return "prune-co-interest";
    case AxisKind::kPruneStaleEdges: return "prune-stale-edges";
    case AxisKind::kMatchingLimit: return "matching-limit";
    case AxisKind::kComposition: return "composition";
    case AxisKind::kFreqSupport: return "freq-support";
  }
  BM_CHECK_MSG(false, "unreachable axis kind");
  return "";
}

std::string AxisKindDescription(AxisKind kind) {
  switch (kind) {
    case AxisKind::kTheta: return "bundling coefficient theta (Eq. 1)";
    case AxisKind::kK: return "max bundle size k (0 = unconstrained)";
    case AxisKind::kGamma: return "sigmoid price sensitivity gamma";
    case AxisKind::kAlpha: return "adoption bias alpha";
    case AxisKind::kLambda: return "ratings->WTP conversion factor";
    case AxisKind::kLevels: return "price grid resolution T (0 = exact)";
    case AxisKind::kNumUsers:
      return "pre-filter generator users (per-cell dataset regeneration)";
    case AxisKind::kNumItems:
      return "pre-filter generator items (per-cell dataset regeneration)";
    case AxisKind::kItemSample:
      return "random N-item subsample of the catalogue, all users kept";
    case AxisKind::kPruneCoInterest:
      return "round-1 co-interest pruning toggle (0/1)";
    case AxisKind::kPruneStaleEdges:
      return "later-round stale-edge pruning toggle (0/1)";
    case AxisKind::kMatchingLimit:
      return "exact-blossom vertex ceiling (0 forces the greedy oracle)";
    case AxisKind::kComposition:
      return "mixed upgrade composition: 0 = min-slack, 1 = product";
    case AxisKind::kFreqSupport:
      return "freq-itemset minimum support fraction in (0, 1]";
  }
  BM_CHECK_MSG(false, "unreachable axis kind");
  return "";
}

const std::vector<AxisKind>& AllAxisKinds() {
  static const std::vector<AxisKind>* kinds = [] {
    // Leaked on purpose (static-destruction-order safety). lint-allow(naked-new)
    auto* all = new std::vector<AxisKind>();
    for (int k = 0; k < kNumAxisKinds; ++k) {
      all->push_back(static_cast<AxisKind>(k));
    }
    return all;
  }();
  return *kinds;
}

bool IsDatasetAxis(AxisKind kind) {
  return kind == AxisKind::kNumUsers || kind == AxisKind::kNumItems ||
         kind == AxisKind::kItemSample;
}

bool HasDatasetAxes(const ScenarioSpec& spec) {
  for (const ScenarioAxis& axis : spec.axes) {
    if (IsDatasetAxis(axis.kind)) return true;
  }
  return false;
}

std::optional<std::vector<double>> ParseDoubleList(std::string_view value) {
  std::vector<double> out;
  for (const std::string& piece : Split(value, ',')) {
    std::optional<double> d = ParseDouble(StripWhitespace(piece));
    if (!d) return std::nullopt;
    out.push_back(*d);
  }
  if (out.empty()) return std::nullopt;
  return out;
}

std::optional<AxisKind> AxisKindByName(std::string_view name) {
  for (AxisKind kind : AllAxisKinds()) {
    if (name == AxisKindName(kind)) return kind;
  }
  return std::nullopt;
}

std::string DatasetKey(const DatasetSpec& spec) {
  std::string key = spec.profile;
  key += "|seed=" + StrFormat("%llu", static_cast<unsigned long long>(spec.seed));
  if (spec.activity_sigma) {
    key += "|sigma=" + FormatDoubleShortest(*spec.activity_sigma);
  }
  if (spec.background_mass) {
    key += "|mass=" + FormatDoubleShortest(*spec.background_mass);
  }
  if (spec.popularity_exponent) {
    key += "|pop=" + FormatDoubleShortest(*spec.popularity_exponent);
  }
  if (spec.genres_per_user) {
    key += "|genres=" + StrFormat("%d", *spec.genres_per_user);
  }
  if (spec.num_users) key += "|users=" + StrFormat("%d", *spec.num_users);
  if (spec.num_items) key += "|items=" + StrFormat("%d", *spec.num_items);
  if (spec.item_sample) key += "|sample=" + StrFormat("%d", *spec.item_sample);
  return key;
}

std::optional<ScenarioSpec> ParseScenarioSpec(std::string_view text,
                                              std::string* error) {
  ScenarioSpec spec;
  auto fail = [error](const std::string& message) -> std::optional<ScenarioSpec> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };

  for (const std::string& token : Tokens(text)) {
    std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return fail("expected key=value, got '" + token + "'");
    }
    std::string key(StripWhitespace(token.substr(0, eq)));
    std::string value(StripWhitespace(token.substr(eq + 1)));

    if (StartsWith(key, "axis:")) {
      std::string axis_name = key.substr(5);
      std::optional<AxisKind> kind = AxisKindByName(axis_name);
      if (!kind) return fail("unknown axis '" + axis_name + "'");
      std::optional<std::vector<double>> values = ParseDoubleList(value);
      if (!values) return fail("bad value list for axis '" + axis_name + "'");
      spec.axes.push_back(ScenarioAxis{*kind, std::move(*values)});
      continue;
    }

    if (key == "name") {
      spec.name = value;
    } else if (key == "description") {
      spec.description = value;
    } else if (key == "scale") {
      spec.dataset.profile = value;
    } else if (key == "seed") {
      std::optional<long long> seed = ParseInt(value);
      if (!seed || *seed < 0) return fail("bad seed '" + value + "'");
      spec.dataset.seed = static_cast<std::uint64_t>(*seed);
    } else if (key == "lambda") {
      std::optional<double> d = ParseDouble(value);
      if (!d) return fail("bad lambda '" + value + "'");
      spec.dataset.lambda = *d;
    } else if (key == "theta") {
      std::optional<double> d = ParseDouble(value);
      if (!d) return fail("bad theta '" + value + "'");
      spec.theta = *d;
    } else if (key == "k") {
      std::optional<long long> k = ParseInt(value);
      if (!k || *k < 0) return fail("bad k '" + value + "'");
      spec.max_bundle_size = static_cast<int>(*k);
    } else if (key == "levels") {
      std::optional<long long> levels = ParseInt(value);
      if (!levels || *levels < 0) return fail("bad levels '" + value + "'");
      spec.price_levels = static_cast<int>(*levels);
    } else if (key == "methods") {
      for (const std::string& piece : Split(value, ',')) {
        std::string method(StripWhitespace(piece));
        if (!method.empty()) spec.methods.push_back(std::move(method));
      }
    } else if (key == "activity-sigma") {
      std::optional<double> d = ParseDouble(value);
      if (!d) return fail("bad activity-sigma '" + value + "'");
      spec.dataset.activity_sigma = *d;
    } else if (key == "background-mass") {
      std::optional<double> d = ParseDouble(value);
      if (!d) return fail("bad background-mass '" + value + "'");
      spec.dataset.background_mass = *d;
    } else if (key == "popularity-exponent") {
      std::optional<double> d = ParseDouble(value);
      if (!d) return fail("bad popularity-exponent '" + value + "'");
      spec.dataset.popularity_exponent = *d;
    } else if (key == "genres-per-user") {
      std::optional<long long> g = ParseInt(value);
      if (!g || *g <= 0) return fail("bad genres-per-user '" + value + "'");
      spec.dataset.genres_per_user = static_cast<int>(*g);
    } else if (key == "num-users") {
      std::optional<long long> n = ParseInt(value);
      if (!n || *n <= 0 || *n > std::numeric_limits<int>::max()) {
        return fail("bad num-users '" + value + "'");
      }
      spec.dataset.num_users = static_cast<int>(*n);
    } else if (key == "num-items") {
      std::optional<long long> n = ParseInt(value);
      if (!n || *n <= 0 || *n > std::numeric_limits<int>::max()) {
        return fail("bad num-items '" + value + "'");
      }
      spec.dataset.num_items = static_cast<int>(*n);
    } else if (key == "item-sample") {
      std::optional<long long> n = ParseInt(value);
      if (!n || *n <= 0 || *n > std::numeric_limits<int>::max()) {
        return fail("bad item-sample '" + value + "'");
      }
      spec.dataset.item_sample = static_cast<int>(*n);
    } else {
      return fail("unknown key '" + key + "'");
    }
  }
  return spec;
}

std::string FormatScenarioSpec(const ScenarioSpec& spec) {
  std::string out;
  auto line = [&out](const std::string& key, const std::string& value) {
    out += key;
    out += "=";
    out += value;
    out += "\n";
  };
  if (!spec.name.empty()) line("name", spec.name);
  if (!spec.description.empty()) line("description", spec.description);
  line("scale", spec.dataset.profile);
  line("seed", StrFormat("%llu", static_cast<unsigned long long>(spec.dataset.seed)));
  line("lambda", FormatDoubleShortest(spec.dataset.lambda));
  if (spec.dataset.activity_sigma) {
    line("activity-sigma", FormatDoubleShortest(*spec.dataset.activity_sigma));
  }
  if (spec.dataset.background_mass) {
    line("background-mass", FormatDoubleShortest(*spec.dataset.background_mass));
  }
  if (spec.dataset.popularity_exponent) {
    line("popularity-exponent",
         FormatDoubleShortest(*spec.dataset.popularity_exponent));
  }
  if (spec.dataset.genres_per_user) {
    line("genres-per-user", StrFormat("%d", *spec.dataset.genres_per_user));
  }
  if (spec.dataset.num_users) {
    line("num-users", StrFormat("%d", *spec.dataset.num_users));
  }
  if (spec.dataset.num_items) {
    line("num-items", StrFormat("%d", *spec.dataset.num_items));
  }
  if (spec.dataset.item_sample) {
    line("item-sample", StrFormat("%d", *spec.dataset.item_sample));
  }
  line("theta", FormatDoubleShortest(spec.theta));
  line("k", StrFormat("%d", spec.max_bundle_size));
  line("levels", StrFormat("%d", spec.price_levels));
  std::string methods;
  for (const std::string& m : spec.methods) {
    if (!methods.empty()) methods += ",";
    methods += m;
  }
  line("methods", methods);
  for (const ScenarioAxis& axis : spec.axes) {
    line("axis:" + AxisKindName(axis.kind), JoinDoubles(axis.values));
  }
  return out;
}

namespace {

// Integer-kind axis values must survive the static_cast<int> the runner
// applies — integral, finite, and inside int range — or bad user input
// would reach undefined casts and solver CHECK aborts instead of a typed
// diagnostic.
bool IsIntegral(double value) {
  return std::isfinite(value) && std::floor(value) == value &&
         value >= static_cast<double>(std::numeric_limits<int>::min()) &&
         value <= static_cast<double>(std::numeric_limits<int>::max());
}

// Per-kind value constraints; returns false with a diagnostic naming the
// axis and the offending value.
bool ValidateAxisValues(const ScenarioAxis& axis, std::string* error) {
  const std::string name = AxisKindName(axis.kind);
  for (double value : axis.values) {
    if (!std::isfinite(value)) {
      return Fail(error, "axis '" + name + "' has a non-finite value");
    }
    switch (axis.kind) {
      case AxisKind::kTheta:
        break;  // Any finite double.
      case AxisKind::kGamma:
      case AxisKind::kAlpha:
      case AxisKind::kLambda:
        if (value <= 0.0) {
          return Fail(error, "axis '" + name + "' needs positive values, got " +
                                 FormatDoubleShortest(value));
        }
        break;
      case AxisKind::kK:
      case AxisKind::kLevels:
      case AxisKind::kMatchingLimit:
        if (!IsIntegral(value) || value < 0) {
          return Fail(error, "axis '" + name +
                                 "' needs integers >= 0, got " +
                                 FormatDoubleShortest(value));
        }
        break;
      case AxisKind::kNumUsers:
      case AxisKind::kNumItems:
      case AxisKind::kItemSample:
        if (!IsIntegral(value) || value < 1) {
          return Fail(error, "axis '" + name +
                                 "' needs integers >= 1, got " +
                                 FormatDoubleShortest(value));
        }
        break;
      case AxisKind::kPruneCoInterest:
      case AxisKind::kPruneStaleEdges:
      case AxisKind::kComposition:
        if (value != 0.0 && value != 1.0) {
          return Fail(error, "axis '" + name + "' needs 0 or 1 values, got " +
                                 FormatDoubleShortest(value));
        }
        break;
      case AxisKind::kFreqSupport:
        if (value <= 0.0 || value > 1.0) {
          return Fail(error, "axis 'freq-support' needs values in (0, 1], got " +
                                 FormatDoubleShortest(value));
        }
        break;
    }
  }
  return true;
}

}  // namespace

bool ValidateDatasetSpec(const DatasetSpec& dataset, std::string* error) {
  if (!KnownProfile(dataset.profile)) {
    std::string valid;
    for (const std::string& p : KnownDatasetProfiles()) {
      valid += (valid.empty() ? "" : ", ") + p;
    }
    return Fail(error, "unknown dataset profile '" + dataset.profile +
                           "' (valid: " + valid + ")");
  }
  if (!(dataset.lambda > 0.0) || !std::isfinite(dataset.lambda)) {
    return Fail(error, "lambda must be positive and finite");
  }
  if (dataset.num_users && *dataset.num_users <= 0) {
    return Fail(error, "num-users must be positive");
  }
  if (dataset.num_items && *dataset.num_items <= 0) {
    return Fail(error, "num-items must be positive");
  }
  if (dataset.item_sample && *dataset.item_sample <= 0) {
    return Fail(error, "item-sample must be positive");
  }
  // The generator's domains: background mass is a categorical weight, and
  // a negative popularity exponent overflows the Zipf weights 1/(r+1)^s.
  const auto non_negative = [](const std::optional<double>& v) {
    return !v || (std::isfinite(*v) && *v >= 0.0);
  };
  if (!non_negative(dataset.background_mass)) {
    return Fail(error, "background-mass must be finite and >= 0");
  }
  if (!non_negative(dataset.popularity_exponent)) {
    return Fail(error, "popularity-exponent must be finite and >= 0");
  }
  return true;
}

bool ValidateScenarioSpec(const ScenarioSpec& spec, std::string* error) {
  if (!ValidateDatasetSpec(spec.dataset, error)) return false;
  if (spec.price_levels < 0) return Fail(error, "levels must be >= 0");
  if (spec.max_bundle_size < 0) return Fail(error, "k must be >= 0");
  if (spec.methods.empty()) return Fail(error, "no methods listed");
  const BundlerRegistry& registry = BundlerRegistry::Global();
  for (const std::string& method : spec.methods) {
    if (!registry.Has(method)) {
      return Fail(error, "unknown method '" + method + "'");
    }
  }
  if (spec.axes.empty()) return Fail(error, "at least one axis is required");
  int first_position[kNumAxisKinds];
  for (int& position : first_position) position = -1;
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    const ScenarioAxis& axis = spec.axes[a];
    if (axis.values.empty()) {
      return Fail(error, "axis '" + AxisKindName(axis.kind) + "' has no values");
    }
    if (!ValidateAxisValues(axis, error)) return false;
    const std::size_t slot = static_cast<std::size_t>(axis.kind);
    if (first_position[slot] >= 0) {
      return Fail(error,
                  StrFormat("axis '%s' repeated (axes %d and %zu)",
                            AxisKindName(axis.kind).c_str(),
                            first_position[slot] + 1, a + 1));
    }
    first_position[slot] = static_cast<int>(a);
  }
  return true;
}

std::vector<std::string> ScenarioSpecWarnings(const ScenarioSpec& spec) {
  std::vector<std::string> warnings;
  bool has_composition = false, has_gamma = false;
  for (const ScenarioAxis& axis : spec.axes) {
    if (axis.kind == AxisKind::kComposition) has_composition = true;
    if (axis.kind == AxisKind::kGamma) has_gamma = true;
  }
  if (has_composition && !has_gamma) {
    warnings.push_back(
        "axis 'composition' without a 'gamma' axis: the mixed upgrade "
        "composition only differs under a sigmoid adoption model, so every "
        "composition point solves the identical step-adoption problem "
        "(add a gamma axis to make the comparison meaningful)");
  }
  return warnings;
}

namespace {

ScenarioSpec MakePreset(std::string name, std::string description,
                        std::vector<std::string> methods, ScenarioAxis axis) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.methods = std::move(methods);
  spec.axes.push_back(std::move(axis));
  return spec;
}

std::vector<ScenarioSpec> MakeBuiltins() {
  std::vector<ScenarioSpec> presets;

  // The paper's sweeps (Figures 2-5, Table 2).
  presets.push_back(MakePreset(
      "fig2-theta", "revenue vs bundling coefficient theta (paper Figure 2)",
      StandardMethodKeys(),
      {AxisKind::kTheta, {-0.1, -0.05, -0.02, 0.0, 0.02, 0.05, 0.1}}));
  presets.push_back(MakePreset(
      "fig3-gamma", "revenue vs price sensitivity gamma (paper Figure 3)",
      StandardMethodKeys(),
      {AxisKind::kGamma, {0.1, 0.5, 1.0, 10.0, 100.0, 1e6}}));
  presets.push_back(MakePreset(
      "fig4-alpha", "revenue vs adoption bias alpha (paper Figure 4)",
      StandardMethodKeys(), {AxisKind::kAlpha, {0.75, 0.9, 1.0, 1.1, 1.25}}));
  presets.push_back(MakePreset(
      "fig5-k", "revenue vs max bundle size k (paper Figure 5)",
      StandardMethodKeys(),
      {AxisKind::kK, {1, 2, 3, 4, 5, 6, 8, 10, 0}}));
  presets.push_back(MakePreset(
      "table2-lambda",
      "Components coverage vs conversion factor lambda (paper Table 2)",
      {"components", "components-list"},
      {AxisKind::kLambda, {1.0, 1.25, 1.5, 1.75, 2.0}}));

  // Off-paper stress workloads.
  ScenarioSpec heavy = MakePreset(
      "heavy-tail-wtp",
      "theta sweep on heavy-tailed user activity and item popularity",
      StandardMethodKeys(), {AxisKind::kTheta, {-0.05, 0.0, 0.05, 0.1}});
  heavy.dataset.activity_sigma = 1.1;
  heavy.dataset.popularity_exponent = 1.4;
  presets.push_back(std::move(heavy));

  ScenarioSpec sparse = MakePreset(
      "sparse-corating",
      "theta sweep with single-genre users and near-zero background co-rating",
      StandardMethodKeys(), {AxisKind::kTheta, {-0.05, 0.0, 0.05}});
  sparse.dataset.background_mass = 0.02;
  sparse.dataset.genres_per_user = 1;
  presets.push_back(std::move(sparse));

  presets.push_back(MakePreset(
      "large-k-stress", "large size caps up to unconstrained bundles",
      {"components", "pure-matching", "mixed-matching", "pure-greedy",
       "mixed-greedy"},
      {AxisKind::kK, {4, 8, 12, 16, 24, 0}}));

  ScenarioSpec grid = MakePreset(
      "sigmoid-theta-grid",
      "two-axis gamma x theta grid (cross-product expansion demo)",
      {"components", "pure-greedy", "mixed-greedy"},
      {AxisKind::kGamma, {1.0, 10.0, 1e6}});
  grid.axes.push_back({AxisKind::kTheta, {-0.05, 0.0, 0.05}});
  presets.push_back(std::move(grid));

  // Dataset and method-config axis presets (paper Figure 7 / ablations).
  presets.push_back(MakePreset(
      "fig7-users",
      "running-time scalability vs generator user population (paper Figure 7a)",
      {"pure-matching", "pure-greedy", "mixed-matching", "mixed-greedy"},
      {AxisKind::kNumUsers, {650, 1300, 1950, 2600}}));

  ScenarioSpec pruning = MakePreset(
      "ablation-pruning",
      "Algorithm 1 pruning toggles through the cell grid (bench_ablations 2-3)",
      {"pure-matching", "mixed-matching"},
      {AxisKind::kPruneCoInterest, {1, 0}});
  pruning.axes.push_back({AxisKind::kPruneStaleEdges, {1, 0}});
  presets.push_back(std::move(pruning));

  for (const ScenarioSpec& spec : presets) {
    std::string error;
    BM_CHECK_MSG(ValidateScenarioSpec(spec, &error), "invalid builtin preset");
  }
  return presets;
}

}  // namespace

const std::vector<std::string>& KnownDatasetProfiles() {
  static const std::vector<std::string>* profiles =  // lint-allow(naked-new)
      new std::vector<std::string>{"tiny", "small", "medium", "paper"};
  return *profiles;
}

const std::vector<ScenarioSpec>& BuiltinScenarios() {
  static const std::vector<ScenarioSpec>* presets =  // lint-allow(naked-new)
      new std::vector<ScenarioSpec>(MakeBuiltins());
  return *presets;
}

const ScenarioSpec* FindBuiltinScenario(const std::string& name) {
  for (const ScenarioSpec& spec : BuiltinScenarios()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

}  // namespace bundlemine
