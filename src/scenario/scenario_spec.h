// Declarative scenario descriptions for the sweep engine.
//
// A ScenarioSpec names everything the paper's evaluation loop varies — a
// dataset profile + seed (with optional generator overrides for
// off-distribution workloads), the base problem knobs, a method-key list, and
// one or more named parameter axes — and expands into a
// (axis-value × method) cell grid executed by the SweepRunner.
//
// Specs have a canonical textual form (`key=value` pairs separated by ';' or
// newlines) accepted by `configurator_cli --sweep --spec=...`:
//
//   name=my-sweep; scale=tiny; seed=7; methods=components,mixed-greedy;
//   axis:theta=-0.1,0,0.1; axis:k=2,3
//
// ParseScenarioSpec/FormatScenarioSpec round-trip, and the built-in presets
// below cover the paper's Figures 2-5 and Table 2 plus off-paper stress
// workloads (heavy-tail WTP, sparse co-rating, large-k, a two-axis
// sigmoid × θ grid).

#ifndef BUNDLEMINE_SCENARIO_SCENARIO_SPEC_H_
#define BUNDLEMINE_SCENARIO_SCENARIO_SPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace bundlemine {

/// What a swept axis varies. Three families:
///
///   * Problem knobs — θ/k/levels act on the problem, γ/α select the
///     adoption model (γ → sigmoid, α → biased step; together →
///     Sigmoid(γ, α)), λ re-derives the WTP matrix from the same ratings.
///   * Dataset axes — num_users/num_items override the generator's
///     pre-filter population sizes and item-sample subsamples N items from
///     the generated catalogue, so each axis point solves against its own
///     deterministically regenerated dataset (fig7-style scalability
///     curves, Table 4/5 small-N protocols).
///   * Method-config axes — the prune-* toggles (0/1), matching-limit
///     (exact-blossom vertex ceiling; 0 forces the greedy oracle),
///     composition (0 = min-slack, 1 = product), and freq-support select
///     algorithm variants, so the paper's ablations run through the same
///     cell grid.
enum class AxisKind {
  // Problem knobs.
  kTheta,
  kK,
  kGamma,
  kAlpha,
  kLambda,
  kLevels,
  // Dataset axes (per-cell dataset regeneration).
  kNumUsers,
  kNumItems,
  kItemSample,
  // Method-config axes (ablation sweeps).
  kPruneCoInterest,
  kPruneStaleEdges,
  kMatchingLimit,
  kComposition,
  kFreqSupport,
};

/// Number of distinct AxisKind values (for kind-indexed tables).
inline constexpr int kNumAxisKinds = 14;

/// Canonical axis name ("theta", "num_users", "prune-co-interest", ...).
std::string AxisKindName(AxisKind kind);
std::optional<AxisKind> AxisKindByName(std::string_view name);

/// One-line human description of what the axis varies (--list-axes).
std::string AxisKindDescription(AxisKind kind);

/// All axis kinds in declaration order.
const std::vector<AxisKind>& AllAxisKinds();

/// True for the axes that change the dataset a cell solves against
/// (num_users, num_items, item-sample) rather than the problem or method.
bool IsDatasetAxis(AxisKind kind);

/// Parses a comma-separated double list ("-0.1,0,0.1"; whitespace around
/// elements ignored); nullopt on empty input or any unparsable element.
/// Shared by spec axis parsing and the bench harness axis flags.
std::optional<std::vector<double>> ParseDoubleList(std::string_view value);

/// One named axis with its explicit value list.
struct ScenarioAxis {
  AxisKind kind = AxisKind::kTheta;
  std::vector<double> values;
};

/// Dataset selection: a generator profile plus optional overrides that widen
/// the workload family beyond the paper's calibration (heavy-tail activity,
/// sparse co-rating structure).
struct DatasetSpec {
  std::string profile = "small";  ///< tiny | small | medium | paper.
  std::uint64_t seed = 42;
  double lambda = 1.25;  ///< Base ratings→WTP factor (a lambda axis overrides).
  std::optional<double> activity_sigma;       ///< Generator override.
  std::optional<double> background_mass;      ///< Generator override.
  std::optional<double> popularity_exponent;  ///< Generator override.
  std::optional<int> genres_per_user;         ///< Generator override.
  /// Pre-filter population overrides (dataset axes write these per cell).
  std::optional<int> num_users;
  std::optional<int> num_items;
  /// Deterministic N-item subsample of the generated catalogue, all users
  /// kept (the paper's Table 4/5 protocol); clamped to the catalogue size.
  std::optional<int> item_sample;
};

/// Stable identity of the dataset a DatasetSpec materializes: profile, seed,
/// and every generator/sampling override (λ deliberately excluded — WTP
/// derivation is per-request). This is the Engine's dataset-cache key and
/// the sweep runner's per-cell dataset identity.
std::string DatasetKey(const DatasetSpec& spec);

/// A full scenario: dataset, base problem knobs, methods, axes.
struct ScenarioSpec {
  std::string name;
  std::string description;
  DatasetSpec dataset;
  double theta = 0.0;      ///< Base θ (a theta axis overrides per cell).
  int max_bundle_size = 0; ///< Base k (a k axis overrides per cell).
  int price_levels = 100;  ///< Base grid resolution T.
  std::vector<std::string> methods;  ///< Registry keys, run order preserved.
  std::vector<ScenarioAxis> axes;    ///< ≥ 1 axis; the grid is their product.
};

/// `spec` with each of `axis_values` (one per spec axis) written over the
/// member its axis sweeps: theta, k, levels, lambda and the dataset axes.
/// Axis-only knobs (gamma, alpha, method config) set no member; the sweep
/// runner applies them to the cell's problem.
ScenarioSpec WithAxisValues(const ScenarioSpec& spec,
                            const std::vector<double>& axis_values);

/// True when any spec axis is a dataset axis — cells then solve against
/// per-cell regenerated datasets and artifacts record per-cell dataset
/// stats.
bool HasDatasetAxes(const ScenarioSpec& spec);

/// Parses the textual form. On failure returns nullopt and, when `error` is
/// non-null, a one-line diagnostic naming the offending token.
std::optional<ScenarioSpec> ParseScenarioSpec(std::string_view text,
                                              std::string* error = nullptr);

/// Canonical textual form; ParseScenarioSpec(FormatScenarioSpec(s)) yields an
/// identical spec.
std::string FormatScenarioSpec(const ScenarioSpec& spec);

// Each dataset and problem knob's spec-text key, JSON name, axis name,
// type and domain are stated once, in the knob table of scenario_spec.cc;
// parsing, formatting, DatasetKey, validation, axis naming and the JSON
// forms below all read it.

/// Dataset validation shared by every front end that materializes a
/// DatasetSpec: a known profile and every set knob inside its domain.
/// Returns false with a diagnostic in `error`.
bool ValidateDatasetSpec(const DatasetSpec& dataset,
                         std::string* error = nullptr);

/// The base problem knobs' domain check (theta, k, levels), shared by
/// Engine::Solve's dataset-reference path and the CLI's solve flags. The
/// integers are taken wide, so a flag value is checked before it is
/// narrowed to an int. Returns false with a diagnostic in `error`.
bool ValidateProblemKnobs(double theta, std::int64_t max_bundle_size,
                          std::int64_t price_levels,
                          std::string* error = nullptr);

/// Structural validation: every knob inside its domain (the dataset's and
/// the base problem's), at least one method and every method registered,
/// at least one axis and every axis non-empty, no axis kind repeated (the
/// diagnostic names the duplicate and both positions), every axis value
/// inside its knob's domain, and no gamma axis over exact pricing (levels
/// 0 takes the step adoption model only). Returns false with a diagnostic
/// in `error`.
bool ValidateScenarioSpec(const ScenarioSpec& spec, std::string* error = nullptr);

/// The JSON object of the dataset knobs (the artifact's scenario "dataset";
/// the wire's solve "dataset" and update "load" take the same form): every
/// set knob under its JSON name, in table order.
JsonValue DatasetKnobsJson(const DatasetSpec& dataset);

/// The JSON object of the base problem knobs: theta, k, levels.
JsonValue ProblemKnobsJson(const ScenarioSpec& spec);

/// Reads the dataset knobs present in `object` into `dataset`; absent
/// knobs keep their value, other members are ignored. A mistyped member
/// or a value outside its knob's domain fails with a diagnostic naming it
/// (`what` names the object: "dataset", "load").
bool ReadDatasetKnobs(const JsonValue& object, const char* what,
                      DatasetSpec* dataset, std::string* error);

/// ReadDatasetKnobs for the base problem knobs (theta, k, levels) of `spec`.
bool ReadProblemKnobs(const JsonValue& object, const char* what,
                      ScenarioSpec* spec, std::string* error);

/// Non-fatal authoring lints on an otherwise valid spec, one message per
/// finding (empty = clean). Currently: a `composition` axis without a
/// `gamma` axis — the mixed upgrade composition only branches under a
/// sigmoid adoption model, so with the (default) step model every
/// composition point solves the identical problem and the axis silently
/// duplicates cells. Front ends print these to stderr; they never fail
/// validation.
std::vector<std::string> ScenarioSpecWarnings(const ScenarioSpec& spec);

/// The built-in presets, in a stable order: the paper's sweeps
/// (fig2-theta, fig3-gamma, fig4-alpha, fig5-k, table2-lambda) followed by
/// the off-paper stress scenarios (heavy-tail-wtp, sparse-corating,
/// large-k-stress, sigmoid-theta-grid).
const std::vector<ScenarioSpec>& BuiltinScenarios();

/// Preset lookup by name; nullptr when unknown.
const ScenarioSpec* FindBuiltinScenario(const std::string& name);

}  // namespace bundlemine

#endif  // BUNDLEMINE_SCENARIO_SCENARIO_SPEC_H_
