#include "serve/protocol.h"

#include <utility>
#include <vector>

#include "scenario/artifact_writer.h"
#include "util/strings.h"

namespace bundlemine {
namespace {

// Field tables drive both validation (reject unknown keys — a typo'd field
// silently falling back to a default would be a debugging tarpit) and the
// "valid fields" half of the error message.
constexpr const char* kCommonFields[] = {"kind", "id", "v", "session"};
constexpr const char* kSolveFields[] = {"method", "dataset", "theta",
                                        "k",      "levels",  "options"};
constexpr const char* kDatasetFields[] = {
    "profile",          "seed",           "lambda", "activity_sigma",
    "background_mass",  "popularity_exponent",      "genres_per_user"};
constexpr const char* kSweepFields[] = {"spec", "shard", "options"};
constexpr const char* kOptionsFields[] = {"threads", "deadline_seconds",
                                          "seed"};
constexpr const char* kUpdateFields[] = {"load", "deltas", "market"};
constexpr const char* kResolveFields[] = {"spec", "options", "market"};
constexpr const char* kBatchFields[] = {"requests", "market"};
constexpr const char* kMarketDropFields[] = {"market"};
// Per-op delta field tables ("op" always allowed).
constexpr const char* kDeltaAddUserFields[] = {"op", "ratings"};
constexpr const char* kDeltaRemoveUserFields[] = {"op", "user"};
constexpr const char* kDeltaRatingFields[] = {"op", "user", "item", "stars"};
constexpr const char* kDeltaRemoveRatingFields[] = {"op", "user", "item"};
constexpr const char* kDeltaScalePriceFields[] = {"op", "item", "factor"};
constexpr const char* kDeltaSetPriceFields[] = {"op", "item", "price"};
constexpr const char* kDeltaRatingEntryFields[] = {"item", "stars"};

constexpr const char* kKindList =
    "ping, solve, sweep, update, resolve, batch, stats, shutdown, "
    "market-list, market-drop";
constexpr const char* kDeltaOpList =
    "add_user, remove_user, add_rating, update_rating, remove_rating, "
    "scale_price, set_price";

template <std::size_t N>
std::string FieldList(const char* const (&fields)[N]) {
  std::string out;
  for (const char* field : fields) {
    if (!out.empty()) out += ", ";
    out += field;
  }
  return out;
}

template <std::size_t N>
bool Listed(const std::string& key, const char* const (&fields)[N]) {
  for (const char* field : fields) {
    if (key == field) return true;
  }
  return false;
}

// Rejects members of `object` that are neither kind-specific (`fields`) nor
// common. `what` names the enclosing object in diagnostics ("solve request").
template <std::size_t N>
Status CheckFields(const JsonValue& object, const char* what,
                   const char* const (&fields)[N], bool allow_common) {
  for (const auto& [key, unused] : object.members()) {
    (void)unused;  // Structured binding; only the keys are inspected.
    if (Listed(key, fields)) continue;
    if (allow_common && Listed(key, kCommonFields)) continue;
    return Status::InvalidArgument(
        StrFormat("unknown %s field '%s' (valid: %s)", what, key.c_str(),
                  FieldList(fields).c_str()));
  }
  return Status::Ok();
}

Status TypeError(const char* what, const char* key, const char* want) {
  return Status::InvalidArgument(
      StrFormat("%s field '%s' must be %s", what, key, want));
}

// Typed field accessors: absent fields leave *out untouched (defaults),
// mistyped fields produce an INVALID_ARGUMENT naming the field.
Status ReadString(const JsonValue& object, const char* what, const char* key,
                  std::string* out) {
  const JsonValue* value = object.FindMember(key);
  if (value == nullptr) return Status::Ok();
  if (value->kind() != JsonValue::Kind::kString) {
    return TypeError(what, key, "a string");
  }
  *out = value->AsString();
  return Status::Ok();
}

Status ReadInt(const JsonValue& object, const char* what, const char* key,
               std::int64_t* out) {
  const JsonValue* value = object.FindMember(key);
  if (value == nullptr) return Status::Ok();
  if (value->kind() != JsonValue::Kind::kInt) {
    return TypeError(what, key, "an integer");
  }
  *out = value->AsInt();
  return Status::Ok();
}

Status ReadDouble(const JsonValue& object, const char* what, const char* key,
                  double* out) {
  const JsonValue* value = object.FindMember(key);
  if (value == nullptr) return Status::Ok();
  if (value->kind() != JsonValue::Kind::kInt &&
      value->kind() != JsonValue::Kind::kDouble) {
    return TypeError(what, key, "a number");
  }
  *out = value->AsDouble();
  return Status::Ok();
}

// Required variants: absent fields are an error naming the field.
Status RequireInt(const JsonValue& object, const char* what, const char* key,
                  std::int64_t* out) {
  if (object.FindMember(key) == nullptr) {
    return Status::InvalidArgument(StrFormat("%s needs field '%s'", what, key));
  }
  return ReadInt(object, what, key, out);
}

Status RequireDouble(const JsonValue& object, const char* what,
                     const char* key, double* out) {
  if (object.FindMember(key) == nullptr) {
    return Status::InvalidArgument(StrFormat("%s needs field '%s'", what, key));
  }
  return ReadDouble(object, what, key, out);
}

Status ParseOptions(const JsonValue& request, const char* what,
                    RequestOptions* options) {
  const JsonValue* object = request.FindMember("options");
  if (object == nullptr) return Status::Ok();
  if (object->kind() != JsonValue::Kind::kObject) {
    return TypeError(what, "options", "an object");
  }
  if (Status s = CheckFields(*object, "options", kOptionsFields, false);
      !s.ok()) {
    return s;
  }
  std::int64_t threads = options->threads;
  if (Status s = ReadInt(*object, "options", "threads", &threads); !s.ok()) {
    return s;
  }
  options->threads = static_cast<int>(threads);
  if (Status s = ReadDouble(*object, "options", "deadline_seconds",
                            &options->deadline_seconds);
      !s.ok()) {
    return s;
  }
  std::int64_t seed = static_cast<std::int64_t>(options->seed);
  if (Status s = ReadInt(*object, "options", "seed", &seed); !s.ok()) return s;
  options->seed = static_cast<std::uint64_t>(seed);
  return Status::Ok();
}

// Parses a dataset-reference object (the value of solve's "dataset" or
// update's "load"): the wire's field allowlist first, then the knob
// table's reader. `what` names it in diagnostics.
Status ParseDatasetObject(const JsonValue& object, const char* what,
                          DatasetSpec* dataset) {
  if (Status s = CheckFields(object, what, kDatasetFields, false); !s.ok()) {
    return s;
  }
  std::string error;
  if (!ReadDatasetKnobs(object, what, dataset, &error)) {
    return Status::InvalidArgument(error);
  }
  return Status::Ok();
}

// Parses the solve payload fields out of `document` (a top-level solve
// request or one batch entry). The caller runs CheckFields first with the
// appropriate common-field allowance.
Status ParseSolveFields(const JsonValue& document, const char* what,
                        SolveRequest* solve) {
  if (Status s = ReadString(document, what, "method", &solve->method);
      !s.ok()) {
    return s;
  }
  if (solve->method.empty()) {
    return Status::InvalidArgument(StrFormat(
        "%s needs a 'method' string (a BundlerRegistry key)", what));
  }
  const JsonValue* dataset_object = document.FindMember("dataset");
  if (dataset_object == nullptr) {
    return Status::InvalidArgument(StrFormat(
        "%s needs a 'dataset' object (wire solves reference a "
        "generator profile; caller-owned problems are in-process only)",
        what));
  }
  if (dataset_object->kind() != JsonValue::Kind::kObject) {
    return TypeError(what, "dataset", "an object");
  }
  DatasetSpec dataset;
  if (Status s = ParseDatasetObject(*dataset_object, "dataset", &dataset);
      !s.ok()) {
    return s;
  }
  solve->dataset = std::move(dataset);
  ScenarioSpec problem;  // Its base knobs default to SolveRequest's.
  std::string error;
  if (!ReadProblemKnobs(document, what, &problem, &error)) {
    return Status::InvalidArgument(error);
  }
  solve->theta = problem.theta;
  solve->max_bundle_size = problem.max_bundle_size;
  solve->price_levels = problem.price_levels;
  return ParseOptions(document, what, &solve->options);
}

Status ParseSolve(const JsonValue& document, WireRequest* request) {
  if (Status s = CheckFields(document, "solve request", kSolveFields, true);
      !s.ok()) {
    return s;
  }
  return ParseSolveFields(document, "solve request", &request->solve);
}

Status ParseSweep(const JsonValue& document, WireRequest* request) {
  if (Status s = CheckFields(document, "sweep request", kSweepFields, true);
      !s.ok()) {
    return s;
  }
  if (Status s = ReadString(document, "sweep request", "spec",
                            &request->sweep_spec);
      !s.ok()) {
    return s;
  }
  if (request->sweep_spec.empty()) {
    return Status::InvalidArgument(
        "sweep request needs a 'spec' string (a preset name, inline "
        "'key=value;...' text, or @path)");
  }
  std::string shard;
  if (Status s = ReadString(document, "sweep request", "shard", &shard);
      !s.ok()) {
    return s;
  }
  if (!shard.empty()) {
    StatusOr<std::pair<int, int>> parsed = ParseShard(shard);
    if (!parsed.ok()) return parsed.status();
    request->shard_index = parsed->first;
    request->shard_count = parsed->second;
  }
  return ParseOptions(document, "sweep request", &request->sweep_options);
}

Status ParseDelta(const JsonValue& value, std::size_t index,
                  MarketDelta* delta) {
  const std::string label = StrFormat("delta %zu", index);
  const char* what = label.c_str();
  if (value.kind() != JsonValue::Kind::kObject) {
    return Status::InvalidArgument(StrFormat("%s must be an object", what));
  }
  const JsonValue* op = value.FindMember("op");
  if (op == nullptr || op->kind() != JsonValue::Kind::kString) {
    return Status::InvalidArgument(StrFormat(
        "%s needs an 'op' string (one of: %s)", what, kDeltaOpList));
  }
  std::optional<MarketDeltaOp> parsed_op = MarketDeltaOpByName(op->AsString());
  if (!parsed_op) {
    return Status::InvalidArgument(
        StrFormat("%s has unknown op '%s' (one of: %s)", what,
                  op->AsString().c_str(), kDeltaOpList));
  }
  delta->op = *parsed_op;

  std::int64_t user = delta->user;
  std::int64_t item = delta->item;
  switch (delta->op) {
    case MarketDeltaOp::kAddUser: {
      if (Status s = CheckFields(value, what, kDeltaAddUserFields, false);
          !s.ok()) {
        return s;
      }
      const JsonValue* ratings = value.FindMember("ratings");
      if (ratings == nullptr) return Status::Ok();
      if (ratings->kind() != JsonValue::Kind::kArray) {
        return TypeError(what, "ratings", "an array");
      }
      for (std::size_t r = 0; r < ratings->size(); ++r) {
        const JsonValue& entry = ratings->at(r);
        const std::string entry_label =
            StrFormat("%s rating %zu", what, r);
        if (entry.kind() != JsonValue::Kind::kObject) {
          return Status::InvalidArgument(
              StrFormat("%s must be an object", entry_label.c_str()));
        }
        if (Status s = CheckFields(entry, entry_label.c_str(),
                                   kDeltaRatingEntryFields, false);
            !s.ok()) {
          return s;
        }
        std::int64_t rating_item = -1;
        double stars = 0.0;
        if (Status s = RequireInt(entry, entry_label.c_str(), "item",
                                  &rating_item);
            !s.ok()) {
          return s;
        }
        if (Status s = RequireDouble(entry, entry_label.c_str(), "stars",
                                     &stars);
            !s.ok()) {
          return s;
        }
        delta->ratings.push_back(
            MarketRating{static_cast<int>(rating_item), stars});
      }
      return Status::Ok();
    }
    case MarketDeltaOp::kRemoveUser:
      if (Status s = CheckFields(value, what, kDeltaRemoveUserFields, false);
          !s.ok()) {
        return s;
      }
      if (Status s = ReadInt(value, what, "user", &user); !s.ok()) return s;
      delta->user = static_cast<int>(user);
      return Status::Ok();
    case MarketDeltaOp::kAddRating:
    case MarketDeltaOp::kUpdateRating:
      if (Status s = CheckFields(value, what, kDeltaRatingFields, false);
          !s.ok()) {
        return s;
      }
      if (Status s = RequireInt(value, what, "user", &user); !s.ok()) return s;
      if (Status s = RequireInt(value, what, "item", &item); !s.ok()) return s;
      if (Status s = RequireDouble(value, what, "stars", &delta->stars);
          !s.ok()) {
        return s;
      }
      delta->user = static_cast<int>(user);
      delta->item = static_cast<int>(item);
      return Status::Ok();
    case MarketDeltaOp::kRemoveRating:
      if (Status s = CheckFields(value, what, kDeltaRemoveRatingFields, false);
          !s.ok()) {
        return s;
      }
      if (Status s = RequireInt(value, what, "user", &user); !s.ok()) return s;
      if (Status s = RequireInt(value, what, "item", &item); !s.ok()) return s;
      delta->user = static_cast<int>(user);
      delta->item = static_cast<int>(item);
      return Status::Ok();
    case MarketDeltaOp::kScalePrice:
      if (Status s = CheckFields(value, what, kDeltaScalePriceFields, false);
          !s.ok()) {
        return s;
      }
      if (Status s = RequireInt(value, what, "item", &item); !s.ok()) return s;
      if (Status s = RequireDouble(value, what, "factor", &delta->value);
          !s.ok()) {
        return s;
      }
      delta->item = static_cast<int>(item);
      return Status::Ok();
    case MarketDeltaOp::kSetPrice:
      if (Status s = CheckFields(value, what, kDeltaSetPriceFields, false);
          !s.ok()) {
        return s;
      }
      if (Status s = RequireInt(value, what, "item", &item); !s.ok()) return s;
      if (Status s = RequireDouble(value, what, "price", &delta->value);
          !s.ok()) {
        return s;
      }
      delta->item = static_cast<int>(item);
      return Status::Ok();
  }
  return Status::Internal("unhandled delta op");
}

Status ParseUpdate(const JsonValue& document, WireRequest* request) {
  if (Status s = CheckFields(document, "update request", kUpdateFields, true);
      !s.ok()) {
    return s;
  }
  if (const JsonValue* load = document.FindMember("load"); load != nullptr) {
    if (load->kind() != JsonValue::Kind::kObject) {
      return TypeError("update request", "load", "an object");
    }
    DatasetSpec dataset;
    if (Status s = ParseDatasetObject(*load, "load", &dataset); !s.ok()) {
      return s;
    }
    request->load = std::move(dataset);
  }
  if (const JsonValue* deltas = document.FindMember("deltas");
      deltas != nullptr) {
    if (deltas->kind() != JsonValue::Kind::kArray) {
      return TypeError("update request", "deltas", "an array");
    }
    for (std::size_t i = 0; i < deltas->size(); ++i) {
      MarketDelta delta;
      if (Status s = ParseDelta(deltas->at(i), i, &delta); !s.ok()) return s;
      request->deltas.push_back(std::move(delta));
    }
  }
  if (!request->load.has_value() && request->deltas.empty()) {
    return Status::InvalidArgument(
        "update request needs a 'load' object and/or a non-empty 'deltas' "
        "array");
  }
  return Status::Ok();
}

Status ParseResolve(const JsonValue& document, WireRequest* request) {
  if (Status s =
          CheckFields(document, "resolve request", kResolveFields, true);
      !s.ok()) {
    return s;
  }
  if (Status s = ReadString(document, "resolve request", "spec",
                            &request->resolve_spec);
      !s.ok()) {
    return s;
  }
  if (request->resolve_spec.empty()) {
    return Status::InvalidArgument(
        "resolve request needs a 'spec' string (a preset name, inline "
        "'key=value;...' text, or @path; dataset axes are not allowed — the "
        "market stream supplies the dataset)");
  }
  return ParseOptions(document, "resolve request", &request->resolve_options);
}

Status ParseBatch(const JsonValue& document, WireRequest* request) {
  if (Status s = CheckFields(document, "batch request", kBatchFields, true);
      !s.ok()) {
    return s;
  }
  const JsonValue* requests = document.FindMember("requests");
  if (requests == nullptr || requests->kind() != JsonValue::Kind::kArray) {
    return Status::InvalidArgument(
        "batch request needs a 'requests' array of solve payloads");
  }
  if (requests->size() == 0) {
    return Status::InvalidArgument("batch request needs at least one entry");
  }
  if (requests->size() > kMaxBatchRequests) {
    return Status::InvalidArgument(
        StrFormat("batch request has %zu entries (max %zu)", requests->size(),
                  kMaxBatchRequests));
  }
  for (std::size_t i = 0; i < requests->size(); ++i) {
    const JsonValue& entry = requests->at(i);
    const std::string label = StrFormat("batch entry %zu", i);
    if (entry.kind() != JsonValue::Kind::kObject) {
      return Status::InvalidArgument(
          StrFormat("%s must be an object", label.c_str()));
    }
    // Entries are bare solve payloads: no nested envelope or kind.
    if (Status s = CheckFields(entry, label.c_str(), kSolveFields, false);
        !s.ok()) {
      return s;
    }
    SolveRequest solve;
    if (Status s = ParseSolveFields(entry, label.c_str(), &solve); !s.ok()) {
      return s;
    }
    request->batch.push_back(std::move(solve));
  }
  return Status::Ok();
}

// Session tags and market ids share one identifier alphabet; `what` names
// the offending field ("'session' tag" / "'market' id") in the diagnostic.
Status ValidateWireTag(const std::string& tag, const char* what) {
  const auto valid_char = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
  };
  bool ok = !tag.empty() && tag.size() <= kMaxSessionChars;
  for (std::size_t i = 0; ok && i < tag.size(); ++i) {
    ok = valid_char(tag[i]);
  }
  if (!ok) {
    return Status::InvalidArgument(
        StrFormat("bad %s: must be 1-%zu chars of [A-Za-z0-9._-]", what,
                  kMaxSessionChars));
  }
  return Status::Ok();
}

void SetEnvelope(JsonValue* response, const WireEnvelope& envelope) {
  // "v" is echoed only when the request spelled it out, so implicit-v1
  // clients keep byte-identical responses.
  if (envelope.v_explicit) response->Set("v", JsonValue::Int(envelope.v));
  if (envelope.id.has_value()) {
    response->Set("id", JsonValue::Int(*envelope.id));
  }
  if (!envelope.session.empty()) {
    response->Set("session", JsonValue::Str(envelope.session));
  }
  // "market" mirrors "v": echoed only when spelled out, so traffic that
  // rides the default market keeps its exact pre-v2 response bytes.
  if (envelope.market_explicit) {
    response->Set("market", JsonValue::Str(envelope.market));
  }
}

}  // namespace

const char* WireKindName(WireKind kind) {
  switch (kind) {
    case WireKind::kPing: return "ping";
    case WireKind::kSolve: return "solve";
    case WireKind::kSweep: return "sweep";
    case WireKind::kStats: return "stats";
    case WireKind::kShutdown: return "shutdown";
    case WireKind::kUpdate: return "update";
    case WireKind::kResolve: return "resolve";
    case WireKind::kBatch: return "batch";
    case WireKind::kMarketList: return "market-list";
    case WireKind::kMarketDrop: return "market-drop";
  }
  return "";
}

std::optional<WireKind> WireKindByName(const std::string& name) {
  for (int i = 0; i < kNumWireKinds; ++i) {
    const WireKind kind = static_cast<WireKind>(i);
    if (name == WireKindName(kind)) return kind;
  }
  return std::nullopt;
}

StatusOr<WireRequest> ParseWireRequest(const std::string& line,
                                       WireEnvelope* error_envelope) {
  if (line.size() > kMaxWireRequestBytes) {
    return Status::InvalidArgument(
        StrFormat("oversized request: %zu bytes (max %zu)", line.size(),
                  kMaxWireRequestBytes));
  }
  std::string diagnostic;
  std::optional<JsonValue> document = JsonParse(line, &diagnostic);
  if (!document) {
    return Status::InvalidArgument("malformed request JSON: " + diagnostic);
  }
  if (document->kind() != JsonValue::Kind::kObject) {
    return Status::InvalidArgument(
        "request must be a JSON object with a 'kind' field");
  }

  WireRequest request;
  // Extract the envelope before any validation can fail, so the error
  // response for a bad-but-identifiable request still echoes it and
  // pipelining clients stay in sync.
  if (const JsonValue* id = document->FindMember("id"); id != nullptr) {
    if (id->kind() != JsonValue::Kind::kInt) {
      return TypeError("request", "id", "an integer");
    }
    request.envelope.id = id->AsInt();
    if (error_envelope != nullptr) error_envelope->id = id->AsInt();
  }
  if (const JsonValue* v = document->FindMember("v"); v != nullptr) {
    if (v->kind() != JsonValue::Kind::kInt) {
      return TypeError("request", "v", "an integer");
    }
    request.envelope.v = static_cast<int>(v->AsInt());
    request.envelope.v_explicit = true;
    if (error_envelope != nullptr) {
      error_envelope->v = request.envelope.v;
      error_envelope->v_explicit = true;
    }
  }
  if (const JsonValue* session = document->FindMember("session");
      session != nullptr) {
    if (session->kind() != JsonValue::Kind::kString) {
      return TypeError("request", "session", "a string");
    }
    if (Status s = ValidateWireTag(session->AsString(), "'session' tag");
        !s.ok()) {
      return s;
    }
    request.envelope.session = session->AsString();
    if (error_envelope != nullptr) {
      error_envelope->session = request.envelope.session;
    }
  }
  if (const JsonValue* market = document->FindMember("market");
      market != nullptr) {
    if (market->kind() != JsonValue::Kind::kString) {
      return TypeError("request", "market", "a string");
    }
    if (Status s = ValidateWireTag(market->AsString(), "'market' id");
        !s.ok()) {
      return s;
    }
    request.envelope.market = market->AsString();
    request.envelope.market_explicit = true;
    if (error_envelope != nullptr) {
      error_envelope->market = request.envelope.market;
      error_envelope->market_explicit = true;
    }
  }
  if (request.envelope.v < kWireProtocolVersion ||
      request.envelope.v > kWireProtocolVersionMax) {
    return Status::InvalidArgument(StrFormat(
        "unsupported protocol version %d (this server speaks v%d-v%d)",
        request.envelope.v, kWireProtocolVersion, kWireProtocolVersionMax));
  }

  const JsonValue* kind = document->FindMember("kind");
  if (kind == nullptr || kind->kind() != JsonValue::Kind::kString) {
    return Status::InvalidArgument(StrFormat(
        "request needs a 'kind' string (one of: %s)", kKindList));
  }
  std::optional<WireKind> parsed_kind = WireKindByName(kind->AsString());
  if (!parsed_kind) {
    return Status::InvalidArgument(
        StrFormat("unknown request kind '%s' (one of: %s)",
                  kind->AsString().c_str(), kKindList));
  }
  request.kind = *parsed_kind;

  switch (request.kind) {
    case WireKind::kSolve:
      if (Status s = ParseSolve(*document, &request); !s.ok()) return s;
      break;
    case WireKind::kSweep:
      if (Status s = ParseSweep(*document, &request); !s.ok()) return s;
      break;
    case WireKind::kUpdate:
      if (Status s = ParseUpdate(*document, &request); !s.ok()) return s;
      break;
    case WireKind::kResolve:
      if (Status s = ParseResolve(*document, &request); !s.ok()) return s;
      break;
    case WireKind::kBatch:
      if (Status s = ParseBatch(*document, &request); !s.ok()) return s;
      break;
    case WireKind::kMarketDrop: {
      if (Status s = CheckFields(*document, "market-drop request",
                                 kMarketDropFields, true);
          !s.ok()) {
        return s;
      }
      // Dropping whatever "default" happens to be would be a footgun;
      // drops always name their target.
      if (!request.envelope.market_explicit) {
        return Status::InvalidArgument(
            "market-drop request needs an explicit 'market' id");
      }
      break;
    }
    case WireKind::kMarketList:
    case WireKind::kPing:
    case WireKind::kStats:
    case WireKind::kShutdown: {
      // Control requests carry no payload; reject stray fields.
      if (Status s = CheckFields(*document, "control request", kCommonFields,
                                 false);
          !s.ok()) {
        return s;
      }
      break;
    }
  }
  return request;
}

JsonValue ErrorResponseJson(const WireEnvelope& envelope,
                            const Status& status) {
  JsonValue out = JsonValue::Object();
  SetEnvelope(&out, envelope);
  out.Set("ok", JsonValue::Bool(false));
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue::Str(StatusCodeName(status.code())));
  error.Set("message", JsonValue::Str(status.message()));
  out.Set("error", std::move(error));
  return out;
}

JsonValue PingResponseJson(const WireEnvelope& envelope) {
  JsonValue out = JsonValue::Object();
  SetEnvelope(&out, envelope);
  out.Set("ok", JsonValue::Bool(true));
  out.Set("kind", JsonValue::Str("ping"));
  out.Set("message", JsonValue::Str("pong"));
  return out;
}

JsonValue SolveResponseJson(const WireEnvelope& envelope,
                            const SolveResponse& response) {
  JsonValue out = JsonValue::Object();
  SetEnvelope(&out, envelope);
  out.Set("ok", JsonValue::Bool(true));
  out.Set("kind", JsonValue::Str("solve"));
  out.Set("method", JsonValue::Str(response.solution.method));
  out.Set("revenue", JsonValue::Double(response.solution.total_revenue));
  out.Set("num_offers",
          JsonValue::Int(static_cast<std::int64_t>(response.solution.offers.size())));
  JsonValue offers = JsonValue::Array();
  for (const PricedBundle& offer : response.solution.offers) {
    JsonValue o = JsonValue::Object();
    JsonValue items = JsonValue::Array();
    for (ItemId item : offer.items.items()) items.Add(JsonValue::Int(item));
    o.Set("items", std::move(items));
    o.Set("price", JsonValue::Double(offer.price));
    o.Set("revenue", JsonValue::Double(offer.revenue));
    o.Set("expected_buyers", JsonValue::Double(offer.expected_buyers));
    o.Set("component", JsonValue::Bool(offer.is_component_offer));
    offers.Add(std::move(o));
  }
  out.Set("offers", std::move(offers));
  JsonValue stats = JsonValue::Object();
  stats.Set("pairs_evaluated", JsonValue::Int(response.stats.pairs_evaluated));
  stats.Set("merges", JsonValue::Int(response.stats.merges));
  stats.Set("rounds", JsonValue::Int(response.stats.rounds));
  stats.Set("deadline_hit", JsonValue::Bool(response.stats.deadline_hit));
  out.Set("stats", std::move(stats));
  return out;
}

JsonValue SweepResponseJson(const WireEnvelope& envelope,
                            const SweepResponse& response) {
  JsonValue out = JsonValue::Object();
  SetEnvelope(&out, envelope);
  out.Set("ok", JsonValue::Bool(true));
  out.Set("kind", JsonValue::Str("sweep"));
  out.Set("grid_cells", JsonValue::Int(response.grid_cells));
  out.Set("cells",
          JsonValue::Int(static_cast<std::int64_t>(response.result.cells.size())));
  out.Set("artifact", SweepArtifact(response.result));
  return out;
}

JsonValue UpdateResponseJson(const WireEnvelope& envelope,
                             std::uint64_t version, int num_users,
                             int num_items, std::size_t applied) {
  JsonValue out = JsonValue::Object();
  SetEnvelope(&out, envelope);
  out.Set("ok", JsonValue::Bool(true));
  out.Set("kind", JsonValue::Str("update"));
  out.Set("version", JsonValue::Int(static_cast<std::int64_t>(version)));
  out.Set("num_users", JsonValue::Int(num_users));
  out.Set("num_items", JsonValue::Int(num_items));
  out.Set("applied", JsonValue::Int(static_cast<std::int64_t>(applied)));
  return out;
}

JsonValue ResolveResponseJson(const WireEnvelope& envelope,
                              const ResolveResponse& response) {
  JsonValue out = JsonValue::Object();
  SetEnvelope(&out, envelope);
  out.Set("ok", JsonValue::Bool(true));
  out.Set("kind", JsonValue::Str("resolve"));
  out.Set("version",
          JsonValue::Int(static_cast<std::int64_t>(response.market_version)));
  out.Set("grid_cells", JsonValue::Int(response.grid_cells));
  out.Set("cells",
          JsonValue::Int(static_cast<std::int64_t>(response.result.cells.size())));
  // Incremental-work accounting: observability only, deliberately outside
  // the artifact (whose bytes must match the batch rebuild).
  JsonValue incremental = JsonValue::Object();
  incremental.Set("response_cache_hit",
                  JsonValue::Bool(response.response_cache_hit));
  incremental.Set("pairs_evaluated",
                  JsonValue::Int(response.pairs_evaluated));
  incremental.Set("pairs_reused", JsonValue::Int(response.pairs_reused));
  out.Set("incremental", std::move(incremental));
  out.Set("artifact", SweepArtifact(response.result));
  return out;
}

JsonValue BatchResponseJson(const WireEnvelope& envelope,
                            JsonValue responses) {
  JsonValue out = JsonValue::Object();
  SetEnvelope(&out, envelope);
  out.Set("ok", JsonValue::Bool(true));
  out.Set("kind", JsonValue::Str("batch"));
  out.Set("responses", std::move(responses));
  return out;
}

JsonValue StatsResponseJson(const WireEnvelope& envelope, JsonValue stats) {
  JsonValue out = JsonValue::Object();
  SetEnvelope(&out, envelope);
  out.Set("ok", JsonValue::Bool(true));
  out.Set("kind", JsonValue::Str("stats"));
  out.Set("stats", std::move(stats));
  return out;
}

JsonValue ShutdownResponseJson(const WireEnvelope& envelope,
                               std::int64_t drained) {
  JsonValue out = JsonValue::Object();
  SetEnvelope(&out, envelope);
  out.Set("ok", JsonValue::Bool(true));
  out.Set("kind", JsonValue::Str("shutdown"));
  out.Set("drained", JsonValue::Int(drained));
  return out;
}

JsonValue MarketListResponseJson(const WireEnvelope& envelope,
                                 const std::vector<MarketListEntry>& markets) {
  JsonValue out = JsonValue::Object();
  SetEnvelope(&out, envelope);
  out.Set("ok", JsonValue::Bool(true));
  out.Set("kind", JsonValue::Str("market-list"));
  JsonValue rows = JsonValue::Array();
  for (const MarketListEntry& market : markets) {
    JsonValue row = JsonValue::Object();
    row.Set("id", JsonValue::Str(market.id));
    if (!market.tenant.empty()) {
      row.Set("tenant", JsonValue::Str(market.tenant));
    }
    row.Set("loaded", JsonValue::Bool(market.loaded));
    row.Set("version",
            JsonValue::Int(static_cast<std::int64_t>(market.version)));
    row.Set("num_users", JsonValue::Int(market.num_users));
    row.Set("num_items", JsonValue::Int(market.num_items));
    rows.Add(std::move(row));
  }
  out.Set("markets", std::move(rows));
  return out;
}

JsonValue MarketDropResponseJson(const WireEnvelope& envelope,
                                 const std::string& market_id,
                                 std::int64_t drained,
                                 std::uint64_t final_version) {
  JsonValue out = JsonValue::Object();
  SetEnvelope(&out, envelope);
  out.Set("ok", JsonValue::Bool(true));
  out.Set("kind", JsonValue::Str("market-drop"));
  out.Set("dropped", JsonValue::Str(market_id));
  out.Set("drained", JsonValue::Int(drained));
  out.Set("final_version",
          JsonValue::Int(static_cast<std::int64_t>(final_version)));
  return out;
}

}  // namespace bundlemine
