#include "scenario/artifact_writer.h"

#include <cstdio>

namespace bundlemine {
namespace {

JsonValue ScenarioJson(const ScenarioSpec& spec) {
  JsonValue out = JsonValue::Object();
  out.Set("name", JsonValue::Str(spec.name));
  out.Set("description", JsonValue::Str(spec.description));
  out.Set("dataset", DatasetKnobsJson(spec.dataset));
  out.Set("base", ProblemKnobsJson(spec));
  JsonValue methods = JsonValue::Array();
  for (const std::string& method : spec.methods) {
    methods.Add(JsonValue::Str(method));
  }
  out.Set("methods", std::move(methods));
  JsonValue axes = JsonValue::Array();
  for (const ScenarioAxis& axis : spec.axes) {
    JsonValue a = JsonValue::Object();
    a.Set("name", JsonValue::Str(AxisKindName(axis.kind)));
    JsonValue values = JsonValue::Array();
    for (double v : axis.values) values.Add(JsonValue::Double(v));
    a.Set("values", std::move(values));
    axes.Add(std::move(a));
  }
  out.Set("axes", std::move(axes));
  return out;
}

JsonValue CellJson(const ScenarioSpec& spec, const SweepCellResult& cell,
                   const ArtifactOptions& options) {
  JsonValue out = JsonValue::Object();
  JsonValue axes = JsonValue::Object();
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    axes.Set(AxisKindName(spec.axes[a].kind),
             JsonValue::Double(cell.cell.axis_values[a]));
  }
  out.Set("axes", std::move(axes));
  out.Set("method", JsonValue::Str(cell.cell.method));
  // Under dataset axes each cell solves its own regenerated dataset; record
  // its post-filter size. Omitted otherwise so existing artifacts (and the
  // golden regression) keep their bytes.
  if (HasDatasetAxes(spec)) {
    JsonValue dataset = JsonValue::Object();
    dataset.Set("num_users", JsonValue::Int(cell.num_users));
    dataset.Set("num_items", JsonValue::Int(cell.num_items));
    out.Set("dataset", std::move(dataset));
  }
  out.Set("revenue", JsonValue::Double(cell.revenue));
  out.Set("coverage", JsonValue::Double(cell.coverage));
  if (cell.has_gain) {
    out.Set("gain_over_components", JsonValue::Double(cell.gain_over_components));
  }
  out.Set("num_offers", JsonValue::Int(cell.num_offers));
  out.Set("num_component_offers", JsonValue::Int(cell.num_component_offers));
  JsonValue histogram = JsonValue::Array();
  for (std::int64_t count : cell.bundle_size_histogram) {
    histogram.Add(JsonValue::Int(count));
  }
  out.Set("bundle_size_histogram", std::move(histogram));
  JsonValue stats = JsonValue::Object();
  // Evaluated + reused: invariant across the batch and incremental resolve
  // paths, so incremental artifacts stay byte-identical to batch rebuilds
  // (batch runs have pairs_reused == 0 and emit the same bytes as before).
  stats.Set("pairs_evaluated",
            JsonValue::Int(cell.stats.pairs_evaluated + cell.stats.pairs_reused));
  stats.Set("merges", JsonValue::Int(cell.stats.merges));
  stats.Set("rounds", JsonValue::Int(cell.stats.rounds));
  stats.Set("deadline_hit", JsonValue::Bool(cell.stats.deadline_hit));
  out.Set("stats", std::move(stats));
  // Captured iteration traces (Figure 6). Revenues are deterministic; the
  // per-iteration seconds are volatile and follow the timings opt-in.
  if (!cell.trace.empty()) {
    JsonValue trace = JsonValue::Array();
    for (const IterationStat& it : cell.trace) {
      JsonValue row = JsonValue::Object();
      row.Set("iteration", JsonValue::Int(it.iteration));
      row.Set("revenue", JsonValue::Double(it.total_revenue));
      row.Set("top_offers", JsonValue::Int(it.num_top_offers));
      if (options.include_timings) {
        row.Set("seconds", JsonValue::Double(it.cumulative_seconds));
      }
      trace.Add(std::move(row));
    }
    out.Set("trace", std::move(trace));
  }
  if (options.include_timings) {
    out.Set("wall_seconds", JsonValue::Double(cell.wall_seconds));
  }
  return out;
}

}  // namespace

JsonValue SweepArtifact(const SweepResult& result, const ArtifactOptions& options) {
  JsonValue out = JsonValue::Object();
  out.Set("schema", JsonValue::Str("bundlemine.sweep"));
  out.Set("schema_version", JsonValue::Int(1));
  out.Set("scenario", ScenarioJson(result.spec));
  JsonValue stats = JsonValue::Object();
  stats.Set("num_users", JsonValue::Int(result.num_users));
  stats.Set("num_items", JsonValue::Int(result.num_items));
  stats.Set("num_ratings", JsonValue::Int(result.num_ratings));
  stats.Set("base_total_wtp", JsonValue::Double(result.base_total_wtp));
  out.Set("dataset_stats", std::move(stats));
  JsonValue cells = JsonValue::Array();
  for (const SweepCellResult& cell : result.cells) {
    cells.Add(CellJson(result.spec, cell, options));
  }
  out.Set("cells", std::move(cells));
  if (options.include_timings) {
    out.Set("wall_seconds", JsonValue::Double(result.wall_seconds));
  }
  return out;
}

std::string SweepArtifactJson(const SweepResult& result,
                              const ArtifactOptions& options) {
  return SweepArtifact(result, options).Dump(2) + "\n";
}

bool WriteSweepArtifact(const SweepResult& result, const std::string& path,
                        const ArtifactOptions& options) {
  if (path.empty()) return false;
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::string json = SweepArtifactJson(result, options);
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  return true;
}

}  // namespace bundlemine
