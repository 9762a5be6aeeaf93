#include "scenario/artifact_reader.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/json.h"
#include "util/strings.h"

namespace bundlemine {
namespace {

// Field extraction helpers: each returns false (with a diagnostic) when the
// member is absent or of the wrong kind, so the reader degrades into one
// INVALID_ARGUMENT naming the offending field instead of a BM_CHECK abort.
bool Fail(std::string* error, std::string message) {
  *error = std::move(message);
  return false;
}

bool GetMember(const JsonValue& object, const std::string& key,
               JsonValue::Kind kind, const JsonValue** out, std::string* error) {
  if (object.kind() != JsonValue::Kind::kObject) {
    return Fail(error, "expected an object around '" + key + "'");
  }
  const JsonValue* member = object.FindMember(key);
  if (member == nullptr) return Fail(error, "missing field '" + key + "'");
  // Integer-valued members are acceptable where a double is expected (the
  // writer never emits them, but hand-edited artifacts may).
  if (member->kind() != kind &&
      !(kind == JsonValue::Kind::kDouble &&
        member->kind() == JsonValue::Kind::kInt)) {
    return Fail(error, "field '" + key + "' has the wrong type");
  }
  *out = member;
  return true;
}

bool GetString(const JsonValue& object, const std::string& key,
               std::string* out, std::string* error) {
  const JsonValue* member = nullptr;
  if (!GetMember(object, key, JsonValue::Kind::kString, &member, error)) {
    return false;
  }
  *out = member->AsString();
  return true;
}

bool GetInt(const JsonValue& object, const std::string& key, std::int64_t* out,
            std::string* error) {
  const JsonValue* member = nullptr;
  if (!GetMember(object, key, JsonValue::Kind::kInt, &member, error)) {
    return false;
  }
  *out = member->AsInt();
  return true;
}

bool GetDouble(const JsonValue& object, const std::string& key, double* out,
               std::string* error) {
  const JsonValue* member = nullptr;
  if (!GetMember(object, key, JsonValue::Kind::kDouble, &member, error)) {
    return false;
  }
  *out = member->AsDouble();
  return true;
}

bool ReadScenario(const JsonValue& json, ScenarioSpec* spec, std::string* error) {
  if (!GetString(json, "name", &spec->name, error)) return false;
  if (!GetString(json, "description", &spec->description, error)) return false;

  const JsonValue* dataset = nullptr;
  if (!GetMember(json, "dataset", JsonValue::Kind::kObject, &dataset, error)) {
    return false;
  }
  if (!ReadDatasetKnobs(*dataset, "dataset", &spec->dataset, error)) {
    return false;
  }

  const JsonValue* base = nullptr;
  if (!GetMember(json, "base", JsonValue::Kind::kObject, &base, error)) {
    return false;
  }
  if (!ReadProblemKnobs(*base, "base", spec, error)) return false;

  const JsonValue* methods = nullptr;
  if (!GetMember(json, "methods", JsonValue::Kind::kArray, &methods, error)) {
    return false;
  }
  for (std::size_t i = 0; i < methods->size(); ++i) {
    if (methods->at(i).kind() != JsonValue::Kind::kString) {
      return Fail(error, "non-string entry in 'methods'");
    }
    spec->methods.push_back(methods->at(i).AsString());
  }

  const JsonValue* axes = nullptr;
  if (!GetMember(json, "axes", JsonValue::Kind::kArray, &axes, error)) {
    return false;
  }
  for (std::size_t i = 0; i < axes->size(); ++i) {
    const JsonValue& axis_json = axes->at(i);
    std::string axis_name;
    if (!GetString(axis_json, "name", &axis_name, error)) return false;
    std::optional<AxisKind> kind = AxisKindByName(axis_name);
    if (!kind) return Fail(error, "unknown axis '" + axis_name + "'");
    ScenarioAxis axis;
    axis.kind = *kind;
    const JsonValue* values = nullptr;
    if (!GetMember(axis_json, "values", JsonValue::Kind::kArray, &values,
                   error)) {
      return false;
    }
    for (std::size_t v = 0; v < values->size(); ++v) {
      const JsonValue& value = values->at(v);
      if (value.kind() != JsonValue::Kind::kDouble &&
          value.kind() != JsonValue::Kind::kInt) {
        return Fail(error, "non-numeric entry in axis '" + axis_name + "'");
      }
      axis.values.push_back(value.AsDouble());
    }
    spec->axes.push_back(std::move(axis));
  }
  return true;
}

// Reconstructs a cell's stable grid index from its axis values and method:
// the grid is axis-point-major (last axis fastest) with methods innermost,
// and axis values round-trip exactly through the shortest-double form, so
// position lookups are exact equality. This recovers the true index even
// for shard artifacts, whose cells are a non-contiguous slice of the grid.
bool StableCellIndex(const ScenarioSpec& spec, const SweepCell& cell,
                     int* index, std::string* error) {
  std::size_t point = 0;
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    const std::vector<double>& values = spec.axes[a].values;
    auto it = std::find(values.begin(), values.end(), cell.axis_values[a]);
    if (it == values.end()) {
      return Fail(error, "cell value not on scenario axis '" +
                             AxisKindName(spec.axes[a].kind) + "'");
    }
    point = point * values.size() + static_cast<std::size_t>(it - values.begin());
  }
  auto method = std::find(spec.methods.begin(), spec.methods.end(), cell.method);
  if (method == spec.methods.end()) {
    return Fail(error,
                "cell method '" + cell.method + "' not in scenario methods");
  }
  *index =
      static_cast<int>(point * spec.methods.size() +
                       static_cast<std::size_t>(method - spec.methods.begin()));
  return true;
}

bool ReadCell(const JsonValue& json, const ScenarioSpec& spec,
              SweepCellResult* cell, std::string* error) {
  const JsonValue* axes = nullptr;
  if (!GetMember(json, "axes", JsonValue::Kind::kObject, &axes, error)) {
    return false;
  }
  for (const ScenarioAxis& axis : spec.axes) {
    double value = 0.0;
    if (!GetDouble(*axes, AxisKindName(axis.kind), &value, error)) return false;
    cell->cell.axis_values.push_back(value);
  }

  if (!GetString(json, "method", &cell->cell.method, error)) return false;
  if (!StableCellIndex(spec, cell->cell, &cell->cell.index, error)) {
    return false;
  }
  if (json.FindMember("dataset") != nullptr) {
    const JsonValue* dataset = nullptr;
    std::int64_t num_users = 0, num_items = 0;
    if (!GetMember(json, "dataset", JsonValue::Kind::kObject, &dataset, error) ||
        !GetInt(*dataset, "num_users", &num_users, error) ||
        !GetInt(*dataset, "num_items", &num_items, error)) {
      return false;
    }
    cell->num_users = static_cast<int>(num_users);
    cell->num_items = static_cast<int>(num_items);
  }
  if (!GetDouble(json, "revenue", &cell->revenue, error)) return false;
  if (!GetDouble(json, "coverage", &cell->coverage, error)) return false;
  if (json.FindMember("gain_over_components") != nullptr) {
    cell->has_gain = true;
    if (!GetDouble(json, "gain_over_components", &cell->gain_over_components,
                   error)) {
      return false;
    }
  }
  std::int64_t num_offers = 0, num_component_offers = 0;
  if (!GetInt(json, "num_offers", &num_offers, error)) return false;
  if (!GetInt(json, "num_component_offers", &num_component_offers, error)) {
    return false;
  }
  cell->num_offers = static_cast<int>(num_offers);
  cell->num_component_offers = static_cast<int>(num_component_offers);

  const JsonValue* histogram = nullptr;
  if (!GetMember(json, "bundle_size_histogram", JsonValue::Kind::kArray,
                 &histogram, error)) {
    return false;
  }
  for (std::size_t i = 0; i < histogram->size(); ++i) {
    if (histogram->at(i).kind() != JsonValue::Kind::kInt) {
      return Fail(error, "non-integer entry in 'bundle_size_histogram'");
    }
    cell->bundle_size_histogram.push_back(histogram->at(i).AsInt());
  }

  const JsonValue* stats = nullptr;
  if (!GetMember(json, "stats", JsonValue::Kind::kObject, &stats, error)) {
    return false;
  }
  std::int64_t rounds = 0;
  const JsonValue* deadline_hit = nullptr;
  if (!GetInt(*stats, "pairs_evaluated", &cell->stats.pairs_evaluated, error) ||
      !GetInt(*stats, "merges", &cell->stats.merges, error) ||
      !GetInt(*stats, "rounds", &rounds, error) ||
      !GetMember(*stats, "deadline_hit", JsonValue::Kind::kBool, &deadline_hit,
                 error)) {
    return false;
  }
  cell->stats.rounds = static_cast<int>(rounds);
  cell->stats.deadline_hit = deadline_hit->AsBool();

  if (json.FindMember("trace") != nullptr) {
    const JsonValue* trace = nullptr;
    if (!GetMember(json, "trace", JsonValue::Kind::kArray, &trace, error)) {
      return false;
    }
    for (std::size_t i = 0; i < trace->size(); ++i) {
      const JsonValue& row = trace->at(i);
      IterationStat it;
      std::int64_t iteration = 0, top_offers = 0;
      if (!GetInt(row, "iteration", &iteration, error) ||
          !GetDouble(row, "revenue", &it.total_revenue, error) ||
          !GetInt(row, "top_offers", &top_offers, error)) {
        return false;
      }
      it.iteration = static_cast<int>(iteration);
      it.num_top_offers = static_cast<int>(top_offers);
      if (row.FindMember("seconds") != nullptr) {
        if (!GetDouble(row, "seconds", &it.cumulative_seconds, error)) {
          return false;
        }
      }
      cell->trace.push_back(it);
    }
  }

  if (json.FindMember("wall_seconds") != nullptr) {
    if (!GetDouble(json, "wall_seconds", &cell->wall_seconds, error)) {
      return false;
    }
  }
  return true;
}

}  // namespace

StatusOr<SweepResult> ParseSweepArtifact(const std::string& json_text) {
  std::string error;
  std::optional<JsonValue> document = JsonParse(json_text, &error);
  if (!document) {
    return Status::InvalidArgument("malformed artifact JSON: " + error);
  }

  std::string schema;
  std::int64_t version = 0;
  if (!GetString(*document, "schema", &schema, &error) ||
      !GetInt(*document, "schema_version", &version, &error)) {
    return Status::InvalidArgument(error);
  }
  if (schema != "bundlemine.sweep") {
    return Status::InvalidArgument("not a sweep artifact (schema '" + schema +
                                   "')");
  }
  if (version != 1) {
    return Status::InvalidArgument(
        StrFormat("unsupported sweep artifact version %lld",
                  static_cast<long long>(version)));
  }

  SweepResult result;
  const JsonValue* scenario = nullptr;
  if (!GetMember(*document, "scenario", JsonValue::Kind::kObject, &scenario,
                 &error) ||
      !ReadScenario(*scenario, &result.spec, &error)) {
    return Status::InvalidArgument(error);
  }

  const JsonValue* stats = nullptr;
  std::int64_t num_users = 0, num_items = 0;
  if (!GetMember(*document, "dataset_stats", JsonValue::Kind::kObject, &stats,
                 &error) ||
      !GetInt(*stats, "num_users", &num_users, &error) ||
      !GetInt(*stats, "num_items", &num_items, &error) ||
      !GetInt(*stats, "num_ratings", &result.num_ratings, &error) ||
      !GetDouble(*stats, "base_total_wtp", &result.base_total_wtp, &error)) {
    return Status::InvalidArgument(error);
  }
  result.num_users = static_cast<int>(num_users);
  result.num_items = static_cast<int>(num_items);

  const JsonValue* cells = nullptr;
  if (!GetMember(*document, "cells", JsonValue::Kind::kArray, &cells, &error)) {
    return Status::InvalidArgument(error);
  }
  result.cells.resize(cells->size());
  for (std::size_t i = 0; i < cells->size(); ++i) {
    if (!ReadCell(cells->at(i), result.spec, &result.cells[i], &error)) {
      return Status::InvalidArgument(
          StrFormat("cell %zu: %s", i, error.c_str()));
    }
  }

  if (document->FindMember("wall_seconds") != nullptr) {
    if (!GetDouble(*document, "wall_seconds", &result.wall_seconds, &error)) {
      return Status::InvalidArgument(error);
    }
  }
  return result;
}

StatusOr<SweepResult> ReadSweepArtifact(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return Status::NotFound("cannot read sweep artifact '" + path + "'");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  StatusOr<SweepResult> parsed = ParseSweepArtifact(buffer.str());
  if (!parsed.ok()) {
    return Status(parsed.status().code(),
                  path + ": " + parsed.status().message());
  }
  return parsed;
}

}  // namespace bundlemine
