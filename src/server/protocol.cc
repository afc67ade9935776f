#include "server/protocol.h"

#include <algorithm>
#include <cmath>

#include "ais/io.h"

namespace habit::server {

namespace {

// The VesselType names the protocol accepts. VesselTypeFromString maps
// unknown strings to kOther, which is exactly the silent-garbage behavior
// a hardened surface must not have — so the protocol validates against
// the round-trip instead.
Result<ais::VesselType> ParseVesselType(const std::string& s) {
  const ais::VesselType t = ais::VesselTypeFromString(s);
  if (t == ais::VesselType::kOther && s != "other") {
    return Status::InvalidArgument("unknown vessel_type '" + s + "'");
  }
  return t;
}

Status FieldError(const char* field, const char* what) {
  return Status::InvalidArgument("request field '" + std::string(field) +
                                 "' " + what);
}

Result<double> GetNumber(const Json& obj, const char* field) {
  const Json* v = obj.Find(field);
  if (v == nullptr) return FieldError(field, "is missing");
  if (!v->is_number()) return FieldError(field, "must be a number");
  return v->number_value();
}

Result<int64_t> GetOptionalInt64(const Json& obj, const char* field,
                                 int64_t default_value) {
  const Json* v = obj.Find(field);
  if (v == nullptr) return default_value;
  if (!v->is_number()) return FieldError(field, "must be a number");
  const double d = v->number_value();
  if (d != std::floor(d) || std::fabs(d) > 9.007199254740992e15) {
    return FieldError(field, "must be an integer");
  }
  return static_cast<int64_t>(d);
}

Status CheckKnownMembers(const Json& obj,
                         std::initializer_list<const char*> known) {
  for (const auto& [key, value] : obj.members()) {
    bool found = false;
    for (const char* k : known) {
      if (key == k) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::string hint;
      for (const char* k : known) {
        hint += hint.empty() ? k : std::string(", ") + k;
      }
      return Status::InvalidArgument("unknown field '" + key +
                                     "' (known: " + hint + ")");
    }
  }
  return Status::OK();
}

Result<geo::LatLng> ParseEndpoint(const Json& obj, const char* field) {
  const Json* v = obj.Find(field);
  if (v == nullptr) return FieldError(field, "is missing");
  if (!v->is_object()) {
    return FieldError(field, "must be an object {\"lat\":..,\"lng\":..}");
  }
  HABIT_RETURN_NOT_OK(CheckKnownMembers(*v, {"lat", "lng"}));
  HABIT_ASSIGN_OR_RETURN(const double lat, GetNumber(*v, "lat"));
  HABIT_ASSIGN_OR_RETURN(const double lng, GetNumber(*v, "lng"));
  return geo::LatLng{lat, lng};
}

Result<api::ImputeRequest> ParseImputeRequest(const Json& obj) {
  if (!obj.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  HABIT_RETURN_NOT_OK(CheckKnownMembers(
      obj,
      {"gap_start", "gap_end", "t_start", "t_end", "vessel_type", "vessel"}));
  api::ImputeRequest request;
  HABIT_ASSIGN_OR_RETURN(request.gap_start, ParseEndpoint(obj, "gap_start"));
  HABIT_ASSIGN_OR_RETURN(request.gap_end, ParseEndpoint(obj, "gap_end"));
  HABIT_ASSIGN_OR_RETURN(request.t_start,
                         GetOptionalInt64(obj, "t_start", 0));
  HABIT_ASSIGN_OR_RETURN(request.t_end, GetOptionalInt64(obj, "t_end", 0));
  if (const Json* vt = obj.Find("vessel_type"); vt != nullptr) {
    if (!vt->is_string()) {
      return FieldError("vessel_type", "must be a string");
    }
    HABIT_ASSIGN_OR_RETURN(const ais::VesselType type,
                           ParseVesselType(vt->string_value()));
    request.vessel_type = type;
  }
  // "vessel" (MMSI) is observability metadata — it feeds the server's
  // distinct-vessel sketch and never reaches a model, so it cannot change
  // imputation output. Still validated strictly: a hardened surface does
  // not accept garbage anywhere.
  if (obj.Find("vessel") != nullptr) {
    HABIT_ASSIGN_OR_RETURN(const int64_t vessel,
                           GetOptionalInt64(obj, "vessel", 0));
    request.vessel_id = vessel;
  }
  return request;
}

// One AIS point of an ingest trip. `ts` must be an integer; `sog`/`cog`
// default to 0 (many feeds omit them). Semantic checks (finite, in
// range, monotonic) live in the epoch pipeline's validator.
Result<ais::AisRecord> ParseTripPoint(const Json& obj) {
  if (!obj.is_object()) {
    return Status::InvalidArgument("must be a JSON object");
  }
  HABIT_RETURN_NOT_OK(
      CheckKnownMembers(obj, {"lat", "lng", "ts", "sog", "cog"}));
  ais::AisRecord record;
  HABIT_ASSIGN_OR_RETURN(record.pos.lat, GetNumber(obj, "lat"));
  HABIT_ASSIGN_OR_RETURN(record.pos.lng, GetNumber(obj, "lng"));
  const Json* ts = obj.Find("ts");
  if (ts == nullptr) return FieldError("ts", "is missing");
  HABIT_ASSIGN_OR_RETURN(record.ts, GetOptionalInt64(obj, "ts", 0));
  if (obj.Find("sog") != nullptr) {
    HABIT_ASSIGN_OR_RETURN(record.sog, GetNumber(obj, "sog"));
  }
  if (obj.Find("cog") != nullptr) {
    HABIT_ASSIGN_OR_RETURN(record.cog, GetNumber(obj, "cog"));
  }
  return record;
}

Result<ais::Trip> ParseTrip(const Json& obj) {
  if (!obj.is_object()) {
    return Status::InvalidArgument("must be a JSON object");
  }
  HABIT_RETURN_NOT_OK(CheckKnownMembers(
      obj, {"trip_id", "mmsi", "vessel_type", "points"}));
  ais::Trip trip;
  const Json* trip_id = obj.Find("trip_id");
  if (trip_id == nullptr) return FieldError("trip_id", "is missing");
  HABIT_ASSIGN_OR_RETURN(trip.trip_id, GetOptionalInt64(obj, "trip_id", 0));
  const Json* mmsi = obj.Find("mmsi");
  if (mmsi == nullptr) return FieldError("mmsi", "is missing");
  HABIT_ASSIGN_OR_RETURN(trip.mmsi, GetOptionalInt64(obj, "mmsi", 0));
  if (const Json* vt = obj.Find("vessel_type"); vt != nullptr) {
    if (!vt->is_string()) {
      return FieldError("vessel_type", "must be a string");
    }
    HABIT_ASSIGN_OR_RETURN(trip.type, ParseVesselType(vt->string_value()));
  }
  const Json* points = obj.Find("points");
  if (points == nullptr || !points->is_array()) {
    return FieldError("points", "must be an array of points");
  }
  trip.points.reserve(points->items().size());
  for (size_t i = 0; i < points->items().size(); ++i) {
    auto point = ParseTripPoint(points->items()[i]);
    if (!point.ok()) {
      return Status::InvalidArgument("points[" + std::to_string(i) +
                                     "]: " + point.status().message());
    }
    ais::AisRecord record = point.MoveValue();
    // Per-record identity mirrors the trip header, the same shape the
    // offline segmentation pipeline produces.
    record.mmsi = trip.mmsi;
    record.type = trip.type;
    trip.points.push_back(std::move(record));
  }
  return trip;
}

}  // namespace

Result<Request> ParseRequest(std::string_view line, size_t max_batch,
                             bool require_model) {
  // Scale the parser's tree cap with the configured batch cap (a request
  // is ~11 JSON values) so an operator raising --max-batch does not make
  // legitimate in-limit frames unparseable; the floor keeps the default
  // expansion-bomb protection.
  const size_t max_values = std::max<size_t>(
      262144, std::min<size_t>(max_batch, 50'000'000) * 20);
  HABIT_ASSIGN_OR_RETURN(const Json frame,
                         Json::Parse(line, /*max_depth=*/64, max_values));
  if (!frame.is_object()) {
    return Status::InvalidArgument("request frame must be a JSON object");
  }
  const Json* op = frame.Find("op");
  if (op == nullptr || !op->is_string()) {
    return Status::InvalidArgument(
        "request frame needs a string \"op\" field");
  }

  Request out;
  if (const Json* id = frame.Find("id"); id != nullptr) {
    if (!id->is_string() && !id->is_number()) {
      return Status::InvalidArgument("\"id\" must be a string or number");
    }
    out.id = *id;
  }

  const std::string& name = op->string_value();
  if (name == "ping" || name == "methods" || name == "stats") {
    HABIT_RETURN_NOT_OK(CheckKnownMembers(frame, {"op", "id"}));
    out.op = name == "ping"      ? Request::Op::kPing
             : name == "methods" ? Request::Op::kMethods
                                 : Request::Op::kStats;
    return out;
  }
  if (name == "rollover") {
    HABIT_RETURN_NOT_OK(CheckKnownMembers(frame, {"op", "id"}));
    out.op = Request::Op::kRollover;
    return out;
  }
  if (name == "ingest") {
    HABIT_RETURN_NOT_OK(CheckKnownMembers(frame, {"op", "id", "trips"}));
    out.op = Request::Op::kIngest;
    const Json* trips = frame.Find("trips");
    if (trips == nullptr || !trips->is_array()) {
      return Status::InvalidArgument("op 'ingest' needs a \"trips\" array");
    }
    if (trips->items().empty()) {
      return Status::InvalidArgument("\"trips\" must not be empty");
    }
    if (trips->items().size() > max_batch) {
      return Status::InvalidArgument(
          "ingest of " + std::to_string(trips->items().size()) +
          " trips exceeds the per-frame limit of " +
          std::to_string(max_batch));
    }
    out.trips.reserve(trips->items().size());
    for (size_t i = 0; i < trips->items().size(); ++i) {
      auto trip = ParseTrip(trips->items()[i]);
      if (!trip.ok()) {
        return Status::InvalidArgument("trips[" + std::to_string(i) +
                                       "]: " + trip.status().message());
      }
      out.trips.push_back(trip.MoveValue());
    }
    return out;
  }
  if (name != "impute" && name != "impute_batch") {
    return Status::InvalidArgument(
        "unknown op '" + name +
        "' (known: ping, methods, stats, impute, impute_batch, ingest, "
        "rollover)");
  }

  const Json* model = frame.Find("model");
  if (model == nullptr || !model->is_string() ||
      model->string_value().empty()) {
    if (require_model || model != nullptr) {
      return Status::InvalidArgument("op '" + name +
                                     "' needs a non-empty string \"model\"");
    }
  } else {
    out.model = model->string_value();
  }

  if (name == "impute") {
    HABIT_RETURN_NOT_OK(
        CheckKnownMembers(frame, {"op", "id", "model", "request"}));
    out.op = Request::Op::kImpute;
    const Json* request = frame.Find("request");
    if (request == nullptr) {
      return Status::InvalidArgument("op 'impute' needs a \"request\"");
    }
    HABIT_ASSIGN_OR_RETURN(api::ImputeRequest parsed,
                           ParseImputeRequest(*request));
    out.requests.push_back(parsed);
    return out;
  }

  HABIT_RETURN_NOT_OK(
      CheckKnownMembers(frame, {"op", "id", "model", "requests"}));
  out.op = Request::Op::kImputeBatch;
  const Json* requests = frame.Find("requests");
  if (requests == nullptr || !requests->is_array()) {
    return Status::InvalidArgument(
        "op 'impute_batch' needs a \"requests\" array");
  }
  HABIT_RETURN_NOT_OK(CheckBatchSize(requests->items().size(), max_batch));
  out.requests.reserve(requests->items().size());
  for (size_t i = 0; i < requests->items().size(); ++i) {
    auto parsed = ParseImputeRequest(requests->items()[i]);
    if (!parsed.ok()) {
      return Status::InvalidArgument("requests[" + std::to_string(i) +
                                     "]: " + parsed.status().message());
    }
    out.requests.push_back(parsed.MoveValue());
  }
  return out;
}

Status CheckBatchSize(size_t n, size_t max_batch) {
  if (n == 0) return Status::InvalidArgument("\"requests\" must not be empty");
  if (n > max_batch) {
    return Status::InvalidArgument(
        "batch of " + std::to_string(n) +
        " requests exceeds the per-frame limit of " +
        std::to_string(max_batch));
  }
  return Status::OK();
}

Json ImputeRequestToJson(const api::ImputeRequest& request) {
  Json obj = Json::Object();
  Json start = Json::Object();
  start.Set("lat", Json::Number(request.gap_start.lat));
  start.Set("lng", Json::Number(request.gap_start.lng));
  Json end = Json::Object();
  end.Set("lat", Json::Number(request.gap_end.lat));
  end.Set("lng", Json::Number(request.gap_end.lng));
  obj.Set("gap_start", std::move(start));
  obj.Set("gap_end", std::move(end));
  obj.Set("t_start", Json::Number(static_cast<double>(request.t_start)));
  obj.Set("t_end", Json::Number(static_cast<double>(request.t_end)));
  if (request.vessel_type.has_value()) {
    obj.Set("vessel_type",
            Json::String(ais::VesselTypeToString(*request.vessel_type)));
  }
  if (request.vessel_id.has_value()) {
    obj.Set("vessel",
            Json::Number(static_cast<double>(*request.vessel_id)));
  }
  return obj;
}

std::string EncodeImputeRequest(const std::string& model,
                                const api::ImputeRequest& request) {
  Json frame = Json::Object();
  frame.Set("op", Json::String("impute"));
  // Empty model = the router surface (the manifest picks models); the
  // member is omitted entirely because the parser rejects an empty one.
  if (!model.empty()) frame.Set("model", Json::String(model));
  frame.Set("request", ImputeRequestToJson(request));
  return frame.Dump();
}

std::string EncodeImputeBatchRequest(
    const std::string& model, std::span<const api::ImputeRequest> requests) {
  Json frame = Json::Object();
  frame.Set("op", Json::String("impute_batch"));
  if (!model.empty()) frame.Set("model", Json::String(model));
  Json arr = Json::Array();
  for (const api::ImputeRequest& request : requests) {
    arr.Append(ImputeRequestToJson(request));
  }
  frame.Set("requests", std::move(arr));
  return frame.Dump();
}

Json TripToJson(const ais::Trip& trip) {
  Json obj = Json::Object();
  obj.Set("trip_id", Json::Number(static_cast<double>(trip.trip_id)));
  obj.Set("mmsi", Json::Number(static_cast<double>(trip.mmsi)));
  obj.Set("vessel_type", Json::String(ais::VesselTypeToString(trip.type)));
  Json points = Json::Array();
  for (const ais::AisRecord& r : trip.points) {
    Json point = Json::Object();
    point.Set("lat", Json::Number(r.pos.lat));
    point.Set("lng", Json::Number(r.pos.lng));
    point.Set("ts", Json::Number(static_cast<double>(r.ts)));
    point.Set("sog", Json::Number(r.sog));
    point.Set("cog", Json::Number(r.cog));
    points.Append(std::move(point));
  }
  obj.Set("points", std::move(points));
  return obj;
}

std::string EncodeIngestRequest(std::span<const ais::Trip> trips) {
  Json frame = Json::Object();
  frame.Set("op", Json::String("ingest"));
  Json arr = Json::Array();
  for (const ais::Trip& trip : trips) arr.Append(TripToJson(trip));
  frame.Set("trips", std::move(arr));
  return frame.Dump();
}

std::string EncodeRolloverRequest() {
  Json frame = Json::Object();
  frame.Set("op", Json::String("rollover"));
  return frame.Dump();
}

std::string AckResponseLine(const std::string& op, uint64_t epoch,
                            uint64_t accepted, uint64_t pending,
                            const Json& id) {
  Json frame = Json::Object();
  frame.Set("ok", Json::Bool(true));
  frame.Set("op", Json::String(op));
  frame.Set("epoch", Json::Number(static_cast<double>(epoch)));
  frame.Set("accepted", Json::Number(static_cast<double>(accepted)));
  frame.Set("pending", Json::Number(static_cast<double>(pending)));
  if (!id.is_null()) frame.Set("id", id);
  return frame.Dump();
}

namespace {

Json ErrorObject(const Status& status) {
  Json err = Json::Object();
  err.Set("code", Json::String(StatusCodeToString(status.code())));
  err.Set("message", Json::String(status.message()));
  return err;
}

void MaybeEchoId(Json* frame, const Json& id) {
  if (!id.is_null()) frame->Set("id", id);
}

}  // namespace

Json ImputeResultToJson(const Result<api::ImputeResponse>& result) {
  Json obj = Json::Object();
  if (!result.ok()) {
    obj.Set("ok", Json::Bool(false));
    obj.Set("error", ErrorObject(result.status()));
    return obj;
  }
  const api::ImputeResponse& response = result.value();
  obj.Set("ok", Json::Bool(true));
  Json path = Json::Array();
  for (const geo::LatLng& p : response.path) {
    Json point = Json::Array();
    point.Append(Json::Number(p.lat));
    point.Append(Json::Number(p.lng));
    path.Append(std::move(point));
  }
  obj.Set("path", std::move(path));
  Json timestamps = Json::Array();
  for (const int64_t t : response.timestamps) {
    timestamps.Append(Json::Number(static_cast<double>(t)));
  }
  obj.Set("timestamps", std::move(timestamps));
  obj.Set("expanded", Json::Number(static_cast<double>(response.expanded)));
  return obj;
}

std::string ImputeResponseLine(const Result<api::ImputeResponse>& result,
                               const Json& id) {
  Json frame = ImputeResultToJson(result);
  MaybeEchoId(&frame, id);
  return frame.Dump();
}

std::string BatchResponseLine(
    std::span<const Result<api::ImputeResponse>> results, const Json& id) {
  Json frame = Json::Object();
  frame.Set("ok", Json::Bool(true));
  Json arr = Json::Array();
  for (const Result<api::ImputeResponse>& result : results) {
    arr.Append(ImputeResultToJson(result));
  }
  frame.Set("results", std::move(arr));
  MaybeEchoId(&frame, id);
  return frame.Dump();
}

std::string ErrorResponseLine(const Status& status, const Json& id) {
  Json frame = Json::Object();
  frame.Set("ok", Json::Bool(false));
  frame.Set("error", ErrorObject(status));
  MaybeEchoId(&frame, id);
  return frame.Dump();
}

}  // namespace habit::server
