#include "scenario/scenario_spec.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>
#include <variant>

#include "core/bundler_registry.h"
#include "util/check.h"
#include "util/strings.h"

namespace bundlemine {
namespace {

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

// ---------------------------------------------------------------------------
// The knob table.
// ---------------------------------------------------------------------------

// How a knob's value is written: a dataset profile name, an integer, or a
// finite real.
enum class KnobType { kProfile, kInteger, kReal };
constexpr const char* kTypeNames[] = {"a string", "an integer", "a number"};

enum class KnobGroup {
  kDataset,   // A DatasetSpec member that selects the generated dataset.
  kWtp,       // Lambda: a DatasetSpec member applied after generation.
  kProblem,   // A ScenarioSpec base member.
  kAxisOnly,  // Set per cell by its axis alone (adoption model, method).
};

constexpr double kInf = std::numeric_limits<double>::infinity();
// Integer knobs that land in an int (every one but the seed) say so in
// their upper bound, so no cast of an admitted value overflows.
constexpr double kMaxInt = std::numeric_limits<int>::max();

// lo < value (lo <= value when closed) and value <= hi.
struct Domain {
  double lo;
  bool lo_open;
  double hi;
};

constexpr Domain kNonNegative{0, false, kInf};
constexpr Domain kPositive{0, true, kInf};
constexpr Domain kCountFromZero{0, false, kMaxInt};
constexpr Domain kCountFromOne{1, false, kMaxInt};
constexpr Domain kToggle{0, false, 1};

// The member a knob sets; none for axis-only knobs, which the sweep runner
// applies to each cell's problem.
using KnobMember =
    std::variant<std::monostate, std::string DatasetSpec::*,
                 std::uint64_t DatasetSpec::*, double DatasetSpec::*,
                 std::optional<double> DatasetSpec::*,
                 std::optional<int> DatasetSpec::*, double ScenarioSpec::*,
                 int ScenarioSpec::*>;

struct Knob {
  KnobGroup group;
  const char* key;   // Spec-text key; nullptr when only an axis sets it.
  const char* json;  // JSON member name; nullptr when not in JSON.
  std::optional<AxisKind> axis;  // Set when the knob can be swept.
  const char* axis_name;
  const char* description;  // --list-axes line.
  KnobType type;
  Domain domain;  // Unused for kProfile (kProfiles).
  KnobMember member;
};

constexpr const char* kProfiles[] = {"tiny", "small", "medium", "paper"};

// Row order is the order of FormatScenarioSpec's lines, DatasetKey's fields
// and the JSON objects' members.
const Knob kKnobs[] = {
    {KnobGroup::kDataset, "scale", "profile", std::nullopt, nullptr, nullptr,
     KnobType::kProfile, kNonNegative, &DatasetSpec::profile},
    {KnobGroup::kDataset, "seed", "seed", std::nullopt, nullptr, nullptr,
     KnobType::kInteger, kNonNegative, &DatasetSpec::seed},
    {KnobGroup::kWtp, "lambda", "lambda", AxisKind::kLambda, "lambda",
     "ratings->WTP conversion factor", KnobType::kReal, {1e-3, false, 100},
     &DatasetSpec::lambda},
    {KnobGroup::kDataset, "activity-sigma", "activity_sigma", std::nullopt,
     nullptr, nullptr, KnobType::kReal, kNonNegative,
     &DatasetSpec::activity_sigma},
    {KnobGroup::kDataset, "background-mass", "background_mass", std::nullopt,
     nullptr, nullptr, KnobType::kReal, kNonNegative,
     &DatasetSpec::background_mass},
    {KnobGroup::kDataset, "popularity-exponent", "popularity_exponent",
     std::nullopt, nullptr, nullptr, KnobType::kReal, kNonNegative,
     &DatasetSpec::popularity_exponent},
    {KnobGroup::kDataset, "genres-per-user", "genres_per_user", std::nullopt,
     nullptr, nullptr, KnobType::kInteger, kCountFromOne,
     &DatasetSpec::genres_per_user},
    {KnobGroup::kDataset, "num-users", "num_users", AxisKind::kNumUsers,
     "num_users", "pre-filter generator users (per-cell dataset regeneration)",
     KnobType::kInteger, kCountFromOne, &DatasetSpec::num_users},
    {KnobGroup::kDataset, "num-items", "num_items", AxisKind::kNumItems,
     "num_items", "pre-filter generator items (per-cell dataset regeneration)",
     KnobType::kInteger, kCountFromOne, &DatasetSpec::num_items},
    {KnobGroup::kDataset, "item-sample", "item_sample", AxisKind::kItemSample,
     "item-sample", "random N-item subsample of the catalogue, all users kept",
     KnobType::kInteger, kCountFromOne, &DatasetSpec::item_sample},
    {KnobGroup::kProblem, "theta", "theta", AxisKind::kTheta, "theta",
     "bundling coefficient theta (Eq. 1)", KnobType::kReal, {-1, false, 1},
     &ScenarioSpec::theta},
    {KnobGroup::kProblem, "k", "k", AxisKind::kK, "k",
     "max bundle size k (0 = unconstrained)", KnobType::kInteger,
     kCountFromZero, &ScenarioSpec::max_bundle_size},
    {KnobGroup::kProblem, "levels", "levels", AxisKind::kLevels, "levels",
     "price grid resolution T (0 = exact)", KnobType::kInteger, kCountFromZero,
     &ScenarioSpec::price_levels},
    {KnobGroup::kAxisOnly, nullptr, nullptr, AxisKind::kGamma, "gamma",
     "sigmoid price sensitivity gamma", KnobType::kReal, kPositive, {}},
    {KnobGroup::kAxisOnly, nullptr, nullptr, AxisKind::kAlpha, "alpha",
     "adoption bias alpha", KnobType::kReal, kPositive, {}},
    {KnobGroup::kAxisOnly, nullptr, nullptr, AxisKind::kPruneCoInterest,
     "prune-co-interest", "round-1 co-interest pruning toggle (0/1)",
     KnobType::kInteger, kToggle, {}},
    {KnobGroup::kAxisOnly, nullptr, nullptr, AxisKind::kPruneStaleEdges,
     "prune-stale-edges", "later-round stale-edge pruning toggle (0/1)",
     KnobType::kInteger, kToggle, {}},
    {KnobGroup::kAxisOnly, nullptr, nullptr, AxisKind::kMatchingLimit,
     "matching-limit",
     "exact-blossom vertex ceiling (0 forces the greedy oracle)",
     KnobType::kInteger, kCountFromZero, {}},
    {KnobGroup::kAxisOnly, nullptr, nullptr, AxisKind::kComposition,
     "composition", "mixed upgrade composition: 0 = min-slack, 1 = product",
     KnobType::kInteger, kToggle, {}},
    {KnobGroup::kAxisOnly, nullptr, nullptr, AxisKind::kFreqSupport,
     "freq-support", "freq-itemset minimum support fraction in (0, 1]",
     KnobType::kReal, {0, true, 1}, {}},
};

const Knob& KnobForAxis(AxisKind kind) {
  for (const Knob& knob : kKnobs) {
    if (knob.axis == kind) return knob;
  }
  BM_CHECK_MSG(false, "axis kind without a knob");
  return kKnobs[0];
}

// Knob values travel as JsonValues (string, int64 or double), the one form
// spec text, the wire and artifacts share.
JsonValue ToJson(const std::string& v) { return JsonValue::Str(v); }
// A seed above int64 range reads back negative and fails its domain.
JsonValue ToJson(std::uint64_t v) {
  return JsonValue::Int(static_cast<std::int64_t>(v));
}
JsonValue ToJson(int v) { return JsonValue::Int(v); }
JsonValue ToJson(double v) { return JsonValue::Double(v); }
template <class T>
std::optional<JsonValue> ToJson(const std::optional<T>& v) {
  if (!v) return std::nullopt;
  return ToJson(*v);
}

// Callers check the value's kind and domain first.
void FromJson(const JsonValue& v, std::string* out) { *out = v.AsString(); }
void FromJson(const JsonValue& v, std::uint64_t* out) {
  *out = static_cast<std::uint64_t>(v.AsInt());
}
void FromJson(const JsonValue& v, int* out) {
  *out = static_cast<int>(v.AsInt());
}
void FromJson(const JsonValue& v, double* out) { *out = v.AsDouble(); }
template <class T>
void FromJson(const JsonValue& v, std::optional<T>* out) {
  FromJson(v, &out->emplace());
}

// The field `member` names in `spec` (a ScenarioSpec, const or not).
template <class Spec, class T, class Class>
auto& Field(Spec& spec, T Class::*member) {
  if constexpr (std::is_same_v<Class, DatasetSpec>) {
    return spec.dataset.*member;
  } else {
    return spec.*member;
  }
}

// The knob's value in `spec`; nullopt when unset or axis-only.
std::optional<JsonValue> KnobValue(const Knob& knob, const ScenarioSpec& spec) {
  return std::visit(
      [&spec](auto member) -> std::optional<JsonValue> {
        if constexpr (std::is_same_v<decltype(member), std::monostate>) {
          return std::nullopt;
        } else {
          return ToJson(Field(spec, member));
        }
      },
      knob.member);
}

void SetKnob(const Knob& knob, const JsonValue& value, ScenarioSpec* spec) {
  std::visit(
      [&](auto member) {
        if constexpr (!std::is_same_v<decltype(member), std::monostate>) {
          FromJson(value, &Field(*spec, member));
        }
      },
      knob.member);
}

// A ScenarioSpec holding `dataset` and default base knobs, for the
// dataset-only entry points.
ScenarioSpec Holding(const DatasetSpec& dataset) {
  ScenarioSpec spec;
  spec.dataset = dataset;
  return spec;
}

// Spec-text and diagnostic form of a knob value.
std::string ValueText(const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kString:
      return value.AsString();
    case JsonValue::Kind::kInt:
      return StrFormat("%lld", static_cast<long long>(value.AsInt()));
    default:
      return std::isfinite(value.AsDouble())
                 ? FormatDoubleShortest(value.AsDouble())
                 : StrFormat("%g", value.AsDouble());
  }
}

bool InDomain(const Knob& knob, double value) {
  if (!std::isfinite(value)) return false;
  if (knob.type == KnobType::kInteger && std::floor(value) != value) {
    return false;
  }
  const Domain& d = knob.domain;
  return (d.lo_open ? value > d.lo : value >= d.lo) && value <= d.hi;
}

std::string DomainText(const Knob& knob) {
  const Domain& d = knob.domain;
  const char* what = knob.type == KnobType::kInteger ? "integers" : "values";
  if (d.hi == kInf) {
    if (d.lo == 0 && d.lo_open) return StrFormat("positive %s", what);
    return StrFormat("%s %s %.10g", what, d.lo_open ? ">" : ">=", d.lo);
  }
  return StrFormat("%s in %c%.10g, %.10g]", what, d.lo_open ? '(' : '[', d.lo,
                   d.hi);
}

// The one domain check, for spec-text keys, axis values (`axis`), JSON
// members and struct fields.
bool CheckKnob(const Knob& knob, const JsonValue& value, std::string* error,
               bool axis = false) {
  if (knob.type == KnobType::kProfile) {
    std::string valid;
    for (const char* profile : kProfiles) {
      if (value.AsString() == profile) return true;
      valid += valid.empty() ? profile : std::string(", ") + profile;
    }
    return Fail(error, "unknown dataset profile '" + value.AsString() +
                           "' (valid: " + valid + ")");
  }
  if (InDomain(knob, value.AsDouble())) return true;
  const std::string name =
      axis ? StrFormat("axis '%s'", knob.axis_name) : std::string(knob.key);
  return Fail(error, StrFormat("%s needs %s, got %s", name.c_str(),
                               DomainText(knob).c_str(),
                               ValueText(value).c_str()));
}

// Checks every knob `spec` sets, in table order.
bool CheckKnobs(const ScenarioSpec& spec, std::string* error) {
  for (const Knob& knob : kKnobs) {
    std::optional<JsonValue> value = KnobValue(knob, spec);
    if (value && !CheckKnob(knob, *value, error)) return false;
  }
  return true;
}

std::optional<JsonValue> ParseKnobText(const Knob& knob,
                                       const std::string& text) {
  switch (knob.type) {
    case KnobType::kProfile:
      return JsonValue::Str(text);
    case KnobType::kInteger:
      if (std::optional<long long> i = ParseInt(text)) return JsonValue::Int(*i);
      return std::nullopt;
    case KnobType::kReal:
      if (std::optional<double> d = ParseDouble(text)) {
        return JsonValue::Double(*d);
      }
      return std::nullopt;
  }
  return std::nullopt;
}

// Whether a knob belongs to the JSON object of the dataset knobs
// (`problem` false) or of the base problem knobs (true).
bool InJson(const Knob& knob, bool problem) {
  return knob.json != nullptr && (knob.group == KnobGroup::kProblem) == problem;
}

JsonValue KnobsJson(const ScenarioSpec& spec, bool problem) {
  JsonValue out = JsonValue::Object();
  for (const Knob& knob : kKnobs) {
    if (!InJson(knob, problem)) continue;
    if (std::optional<JsonValue> value = KnobValue(knob, spec)) {
      out.Set(knob.json, std::move(*value));
    }
  }
  return out;
}

bool ReadKnobsJson(const JsonValue& object, const char* what, bool problem,
                   ScenarioSpec* spec, std::string* error) {
  for (const Knob& knob : kKnobs) {
    if (!InJson(knob, problem)) continue;
    const JsonValue* value = object.FindMember(knob.json);
    if (value == nullptr) continue;
    const JsonValue::Kind kind = value->kind();
    const bool fits =
        knob.type == KnobType::kProfile   ? kind == JsonValue::Kind::kString
        : knob.type == KnobType::kInteger ? kind == JsonValue::Kind::kInt
                                          : kind == JsonValue::Kind::kInt ||
                                                kind == JsonValue::Kind::kDouble;
    if (!fits) {
      return Fail(error, StrFormat("%s field '%s' must be %s", what, knob.json,
                                   kTypeNames[static_cast<int>(knob.type)]));
    }
    if (!CheckKnob(knob, *value, error)) return false;
    SetKnob(knob, *value, spec);
  }
  return true;
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

std::string AxisKindName(AxisKind kind) { return KnobForAxis(kind).axis_name; }

std::string AxisKindDescription(AxisKind kind) {
  return KnobForAxis(kind).description;
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
  return KnobForAxis(kind).group == KnobGroup::kDataset;
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
  for (const Knob& knob : kKnobs) {
    if (knob.axis && name == knob.axis_name) return knob.axis;
  }
  return std::nullopt;
}

ScenarioSpec WithAxisValues(const ScenarioSpec& spec,
                            const std::vector<double>& axis_values) {
  ScenarioSpec out = spec;
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    const Knob& knob = KnobForAxis(spec.axes[a].kind);
    const double v = axis_values[a];
    SetKnob(knob,
            knob.type == KnobType::kInteger
                ? JsonValue::Int(static_cast<std::int64_t>(v))
                : JsonValue::Double(v),
            &out);
  }
  return out;
}

std::string DatasetKey(const DatasetSpec& dataset) {
  const ScenarioSpec spec = Holding(dataset);
  std::string key;
  for (const Knob& knob : kKnobs) {
    if (knob.group != KnobGroup::kDataset) continue;
    if (std::optional<JsonValue> value = KnobValue(knob, spec)) {
      if (!key.empty()) key += ";";
      key += StrFormat("%s=%s", knob.key, ValueText(*value).c_str());
    }
  }
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
      continue;
    }
    if (key == "description") {
      spec.description = value;
      continue;
    }
    if (key == "methods") {
      for (const std::string& piece : Split(value, ',')) {
        std::string method(StripWhitespace(piece));
        if (!method.empty()) spec.methods.push_back(std::move(method));
      }
      continue;
    }
    const Knob* knob = nullptr;
    for (const Knob& k : kKnobs) {
      if (k.key != nullptr && key == k.key) knob = &k;
    }
    if (knob == nullptr) return fail("unknown key '" + key + "'");
    std::optional<JsonValue> parsed = ParseKnobText(*knob, value);
    if (!parsed) return fail("bad " + key + " '" + value + "'");
    std::string domain_error;
    if (!CheckKnob(*knob, *parsed, &domain_error)) return fail(domain_error);
    SetKnob(*knob, *parsed, &spec);
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
  for (const Knob& knob : kKnobs) {
    if (knob.key == nullptr) continue;
    if (std::optional<JsonValue> value = KnobValue(knob, spec)) {
      line(knob.key, ValueText(*value));
    }
  }
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

bool ValidateDatasetSpec(const DatasetSpec& dataset, std::string* error) {
  return CheckKnobs(Holding(dataset), error);
}

bool ValidateProblemKnobs(double theta, std::int64_t max_bundle_size,
                          std::int64_t price_levels, std::string* error) {
  const std::pair<KnobMember, JsonValue> values[] = {
      {&ScenarioSpec::theta, JsonValue::Double(theta)},
      {&ScenarioSpec::max_bundle_size, JsonValue::Int(max_bundle_size)},
      {&ScenarioSpec::price_levels, JsonValue::Int(price_levels)}};
  for (const auto& [member, value] : values) {
    for (const Knob& knob : kKnobs) {
      if (knob.member == member && !CheckKnob(knob, value, error)) return false;
    }
  }
  return true;
}

bool ValidateScenarioSpec(const ScenarioSpec& spec, std::string* error) {
  if (!CheckKnobs(spec, error)) return false;
  if (spec.methods.empty()) return Fail(error, "no methods listed");
  for (const std::string& method : spec.methods) {
    if (FindMethod(method) == nullptr) {
      return Fail(error, "unknown method '" + method + "'");
    }
  }
  if (spec.axes.empty()) return Fail(error, "at least one axis is required");
  int first_position[kNumAxisKinds];
  for (int& position : first_position) position = -1;
  // Exact pricing (levels 0) takes the step adoption model only, and a gamma
  // axis makes every cell's model a sigmoid.
  bool sigmoid = false, exact = spec.price_levels == 0;
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    const ScenarioAxis& axis = spec.axes[a];
    const Knob& knob = KnobForAxis(axis.kind);
    if (axis.values.empty()) {
      return Fail(error, StrFormat("axis '%s' has no values", knob.axis_name));
    }
    for (double value : axis.values) {
      if (!CheckKnob(knob, JsonValue::Double(value), error, /*axis=*/true)) {
        return false;
      }
    }
    const std::size_t slot = static_cast<std::size_t>(axis.kind);
    if (first_position[slot] >= 0) {
      return Fail(error,
                  StrFormat("axis '%s' repeated (axes %d and %zu)",
                            knob.axis_name, first_position[slot] + 1, a + 1));
    }
    first_position[slot] = static_cast<int>(a);
    if (axis.kind == AxisKind::kGamma) sigmoid = true;
    if (axis.kind == AxisKind::kLevels) {
      exact = std::count(axis.values.begin(), axis.values.end(), 0.0) > 0;
    }
  }
  if (sigmoid && exact) {
    return Fail(error, "axis 'gamma' needs levels > 0 (exact pricing takes "
                       "the step adoption model only)");
  }
  return true;
}

JsonValue DatasetKnobsJson(const DatasetSpec& dataset) {
  return KnobsJson(Holding(dataset), /*problem=*/false);
}

JsonValue ProblemKnobsJson(const ScenarioSpec& spec) {
  return KnobsJson(spec, /*problem=*/true);
}

bool ReadDatasetKnobs(const JsonValue& object, const char* what,
                      DatasetSpec* dataset, std::string* error) {
  ScenarioSpec spec = Holding(*dataset);
  if (!ReadKnobsJson(object, what, /*problem=*/false, &spec, error)) {
    return false;
  }
  *dataset = std::move(spec.dataset);
  return true;
}

bool ReadProblemKnobs(const JsonValue& object, const char* what,
                      ScenarioSpec* spec, std::string* error) {
  return ReadKnobsJson(object, what, /*problem=*/true, spec, error);
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
