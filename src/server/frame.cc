#include "server/frame.h"

#include <cstring>

#include "ais/ais.h"

namespace habit::server::frame {

namespace {

// Wire op tags. 1..5 and 7..8 mirror Request::Op; 6 is the JSON escape
// hatch.
enum class OpTag : uint32_t {
  kPing = 1,
  kMethods = 2,
  kStats = 3,
  kImpute = 4,
  kImputeBatch = 5,
  kJson = 6,
  kIngest = 7,
  kRollover = 8,
};

constexpr uint8_t kVesselTypeAbsent = 0xFF;

// ---------------------------------------------------------------- writing

class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { AppendLE(&buf_, v); }
  void U64(uint64_t v) { AppendLE(&buf_, v); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }
  void Raw(std::string_view s) { buf_.append(s.data(), s.size()); }

  /// The complete frame: header (magic + payload length) then payload.
  std::string Frame() const {
    std::string out;
    out.reserve(kHeaderBytes + buf_.size());
    AppendLE(&out, kMagic);
    AppendLE(&out, static_cast<uint32_t>(buf_.size()));
    out += buf_;
    return out;
  }

 private:
  template <typename T>
  static void AppendLE(std::string* out, T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  std::string buf_;
};

// ---------------------------------------------------------------- reading

// Bounds-checked little-endian reader over one frame payload. Every read
// fails cleanly past the end — hostile lengths can never over-read.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<uint8_t>(data_[off_++]);
    return true;
  }
  bool U32(uint32_t* v) { return ReadLE(v); }
  bool U64(uint64_t* v) { return ReadLE(v); }
  bool I64(int64_t* v) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    *v = static_cast<int64_t>(bits);
    return true;
  }
  bool F64(double* v) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool Str(std::string* s) {
    uint32_t len;
    if (!U32(&len) || remaining() < len) return false;
    s->assign(data_.data() + off_, len);
    off_ += len;
    return true;
  }

  size_t remaining() const { return data_.size() - off_; }
  std::string_view rest() const { return data_.substr(off_); }
  bool Done() const { return off_ == data_.size(); }

 private:
  template <typename T>
  bool ReadLE(T* v) {
    if (remaining() < sizeof(T)) return false;
    T out = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      out |= static_cast<T>(static_cast<uint8_t>(data_[off_ + i]))
             << (8 * i);
    }
    off_ += sizeof(T);
    *v = out;
    return true;
  }

  std::string_view data_;
  size_t off_ = 0;
};

Status Truncated() {
  return Status::InvalidArgument("binary frame payload truncated");
}

// ------------------------------------------------------------------- ids

void PutId(Writer* w, const Json& id) {
  if (id.is_null()) {
    w->U8(0);
  } else if (id.is_number()) {
    w->U8(1);
    w->F64(id.number_value());
  } else {
    w->U8(2);
    w->Str(id.string_value());
  }
}

Result<Json> GetId(Reader* r) {
  uint8_t kind;
  if (!r->U8(&kind)) return Truncated();
  switch (kind) {
    case 0:
      return Json::Null();
    case 1: {
      double v;
      if (!r->F64(&v)) return Truncated();
      return Json::Number(v);
    }
    case 2: {
      std::string s;
      if (!r->Str(&s)) return Truncated();
      return Json::String(std::move(s));
    }
    default:
      return Status::InvalidArgument("bad id kind " + std::to_string(kind));
  }
}

}  // namespace

// -------------------------------------------------------------- requests

std::string EncodeRequestFrame(const Request& request) {
  Writer w;
  OpTag tag = OpTag::kPing;
  switch (request.op) {
    case Request::Op::kPing:
      tag = OpTag::kPing;
      break;
    case Request::Op::kMethods:
      tag = OpTag::kMethods;
      break;
    case Request::Op::kStats:
      tag = OpTag::kStats;
      break;
    case Request::Op::kImpute:
      tag = OpTag::kImpute;
      break;
    case Request::Op::kImputeBatch:
      tag = OpTag::kImputeBatch;
      break;
    case Request::Op::kIngest:
      tag = OpTag::kIngest;
      break;
    case Request::Op::kRollover:
      tag = OpTag::kRollover;
      break;
  }
  w.U32(static_cast<uint32_t>(tag));
  PutId(&w, request.id);
  if (request.op == Request::Op::kImpute ||
      request.op == Request::Op::kImputeBatch) {
    w.Str(request.model);
    const std::span<const api::ImputeRequest> qs = request.requests;
    w.U32(static_cast<uint32_t>(qs.size()));
    // SoA columns: one pass per field keeps the layout flat and the
    // decode a straight column fill — no per-request key strings.
    for (const auto& q : qs) w.F64(q.gap_start.lat);
    for (const auto& q : qs) w.F64(q.gap_start.lng);
    for (const auto& q : qs) w.F64(q.gap_end.lat);
    for (const auto& q : qs) w.F64(q.gap_end.lng);
    for (const auto& q : qs) w.I64(q.t_start);
    for (const auto& q : qs) w.I64(q.t_end);
    for (const auto& q : qs) {
      w.U8(q.vessel_type.has_value()
               ? static_cast<uint8_t>(*q.vessel_type)
               : kVesselTypeAbsent);
    }
    for (const auto& q : qs) w.U8(q.vessel_id.has_value() ? 1 : 0);
    for (const auto& q : qs) w.I64(q.vessel_id.value_or(0));
  }
  if (request.op == Request::Op::kIngest) {
    w.U32(static_cast<uint32_t>(request.trips.size()));
    for (const ais::Trip& trip : request.trips) {
      w.I64(trip.trip_id);
      w.I64(trip.mmsi);
      w.U8(static_cast<uint8_t>(trip.type));
      w.U32(static_cast<uint32_t>(trip.points.size()));
      // Per-trip SoA point columns, same discipline as the impute block.
      for (const auto& p : trip.points) w.F64(p.pos.lat);
      for (const auto& p : trip.points) w.F64(p.pos.lng);
      for (const auto& p : trip.points) w.I64(p.ts);
      for (const auto& p : trip.points) w.F64(p.sog);
      for (const auto& p : trip.points) w.F64(p.cog);
    }
  }
  return w.Frame();
}

std::string EncodeJsonRequestFrame(std::string_view line) {
  Writer w;
  w.U32(static_cast<uint32_t>(OpTag::kJson));
  w.U8(0);  // id lives inside the JSON line
  w.Raw(line);
  return w.Frame();
}

Result<FrameRequest> DecodeRequestPayload(std::string_view payload,
                                          size_t max_batch,
                                          bool require_model) {
  Reader r(payload);
  uint32_t op_raw;
  if (!r.U32(&op_raw)) return Truncated();
  const OpTag tag = static_cast<OpTag>(op_raw);
  FrameRequest out;
  if (tag == OpTag::kJson) {
    uint8_t id_kind;
    if (!r.U8(&id_kind) || id_kind != 0) {
      return Status::InvalidArgument(
          "op=json frames carry their id inside the JSON line");
    }
    out.is_json = true;
    out.json = std::string(r.rest());
    return out;
  }

  HABIT_ASSIGN_OR_RETURN(out.request.id, GetId(&r));
  switch (tag) {
    case OpTag::kPing:
      out.request.op = Request::Op::kPing;
      break;
    case OpTag::kMethods:
      out.request.op = Request::Op::kMethods;
      break;
    case OpTag::kStats:
      out.request.op = Request::Op::kStats;
      break;
    case OpTag::kImpute:
      out.request.op = Request::Op::kImpute;
      break;
    case OpTag::kImputeBatch:
      out.request.op = Request::Op::kImputeBatch;
      break;
    case OpTag::kIngest:
      out.request.op = Request::Op::kIngest;
      break;
    case OpTag::kRollover:
      out.request.op = Request::Op::kRollover;
      break;
    default:
      return Status::InvalidArgument("unknown binary op tag " +
                                     std::to_string(op_raw));
  }
  if (tag == OpTag::kIngest) {
    uint32_t n_trips;
    if (!r.U32(&n_trips)) return Truncated();
    if (n_trips == 0) {
      return Status::InvalidArgument("\"trips\" must not be empty");
    }
    if (n_trips > max_batch) {
      return Status::InvalidArgument(
          "ingest of " + std::to_string(n_trips) +
          " trips exceeds the per-frame limit of " +
          std::to_string(max_batch));
    }
    out.request.trips.reserve(n_trips);
    for (uint32_t t = 0; t < n_trips; ++t) {
      ais::Trip trip;
      uint8_t type_raw;
      uint32_t points;
      if (!r.I64(&trip.trip_id) || !r.I64(&trip.mmsi) || !r.U8(&type_raw) ||
          !r.U32(&points)) {
        return Truncated();
      }
      if (type_raw > static_cast<uint8_t>(ais::VesselType::kOther)) {
        return Status::InvalidArgument("trips[" + std::to_string(t) +
                                       "]: unknown vessel_type value " +
                                       std::to_string(type_raw));
      }
      trip.type = static_cast<ais::VesselType>(type_raw);
      // Five 8-byte columns per point; the bound rejects hostile counts
      // before the resize, and the column reads below fail cleanly on a
      // merely short payload.
      if (points > r.remaining() / (5 * 8)) return Truncated();
      trip.points.resize(points);
      for (auto& p : trip.points) (void)r.F64(&p.pos.lat);
      for (auto& p : trip.points) (void)r.F64(&p.pos.lng);
      for (auto& p : trip.points) (void)r.I64(&p.ts);
      for (auto& p : trip.points) (void)r.F64(&p.sog);
      for (auto& p : trip.points) {
        if (!r.F64(&p.cog)) return Truncated();
      }
      for (auto& p : trip.points) {
        p.mmsi = trip.mmsi;
        p.type = trip.type;
      }
      out.request.trips.push_back(std::move(trip));
    }
    if (!r.Done()) {
      return Status::InvalidArgument("trailing bytes after binary frame");
    }
    return out;
  }
  if (tag != OpTag::kImpute && tag != OpTag::kImputeBatch) {
    if (!r.Done()) {
      return Status::InvalidArgument("trailing bytes after binary frame");
    }
    return out;
  }

  const char* op_name = tag == OpTag::kImpute ? "impute" : "impute_batch";
  if (!r.Str(&out.request.model)) return Truncated();
  if (out.request.model.empty() && require_model) {
    return Status::InvalidArgument(std::string("op '") + op_name +
                                   "' needs a non-empty string \"model\"");
  }
  uint32_t n;
  if (!r.U32(&n)) return Truncated();
  if (n == 0) {
    return Status::InvalidArgument("\"requests\" must not be empty");
  }
  if (tag == OpTag::kImpute && n != 1) {
    return Status::InvalidArgument(
        "op 'impute' carries exactly one request (got " +
        std::to_string(n) + ")");
  }
  HABIT_RETURN_NOT_OK(CheckBatchSize(n, max_batch));
  // The SoA block has a fixed per-request width; an exact size check up
  // front rejects truncated or padded frames before any column is read.
  const size_t need = static_cast<size_t>(n) * (6 * 8 + 1 + 1 + 8);
  if (r.remaining() != need) {
    return Status::InvalidArgument(
        "binary impute payload is " + std::to_string(r.remaining()) +
        " bytes, expected " + std::to_string(need) + " for " +
        std::to_string(n) + " requests");
  }
  std::vector<api::ImputeRequest>& qs = out.request.requests;
  qs.resize(n);
  for (auto& q : qs) (void)r.F64(&q.gap_start.lat);
  for (auto& q : qs) (void)r.F64(&q.gap_start.lng);
  for (auto& q : qs) (void)r.F64(&q.gap_end.lat);
  for (auto& q : qs) (void)r.F64(&q.gap_end.lng);
  for (auto& q : qs) (void)r.I64(&q.t_start);
  for (auto& q : qs) (void)r.I64(&q.t_end);
  for (size_t i = 0; i < n; ++i) {
    uint8_t vt = kVesselTypeAbsent;
    (void)r.U8(&vt);
    if (vt == kVesselTypeAbsent) continue;
    if (vt > static_cast<uint8_t>(ais::VesselType::kOther)) {
      return Status::InvalidArgument("requests[" + std::to_string(i) +
                                     "]: unknown vessel_type value " +
                                     std::to_string(vt));
    }
    qs[i].vessel_type = static_cast<ais::VesselType>(vt);
  }
  std::vector<uint8_t> has_vessel(n);
  for (size_t i = 0; i < n; ++i) {
    (void)r.U8(&has_vessel[i]);
    if (has_vessel[i] > 1) {
      return Status::InvalidArgument("requests[" + std::to_string(i) +
                                     "]: bad has_vessel flag");
    }
  }
  for (size_t i = 0; i < n; ++i) {
    int64_t vessel = 0;
    (void)r.I64(&vessel);
    if (has_vessel[i] != 0) qs[i].vessel_id = vessel;
  }
  return out;
}

// ------------------------------------------------------------- responses

std::string EncodePongFrame(const Json& id) {
  Writer w;
  w.U32(static_cast<uint32_t>(ResponseTag::kPong));
  PutId(&w, id);
  return w.Frame();
}

std::string EncodeErrorFrame(const Status& status, const Json& id) {
  Writer w;
  w.U32(static_cast<uint32_t>(ResponseTag::kError));
  PutId(&w, id);
  w.U32(static_cast<uint32_t>(status.code()));
  w.Str(status.message());
  return w.Frame();
}

std::string EncodeJsonResponseFrame(std::string_view json_line) {
  Writer w;
  w.U32(static_cast<uint32_t>(ResponseTag::kJson));
  w.U8(0);  // id lives inside the JSON line
  w.Raw(json_line);
  return w.Frame();
}

std::string EncodeResultsFrame(
    std::span<const Result<api::ImputeResponse>> results, const Json& id,
    bool batch) {
  Writer w;
  w.U32(static_cast<uint32_t>(ResponseTag::kResults));
  PutId(&w, id);
  w.U8(batch ? 1 : 0);
  w.U32(static_cast<uint32_t>(results.size()));
  for (const Result<api::ImputeResponse>& result : results) {
    if (!result.ok()) {
      w.U8(0);
      w.U32(static_cast<uint32_t>(result.status().code()));
      w.Str(result.status().message());
      continue;
    }
    const api::ImputeResponse& response = result.value();
    w.U8(1);
    w.U32(static_cast<uint32_t>(response.path.size()));
    for (const geo::LatLng& p : response.path) {
      w.F64(p.lat);
      w.F64(p.lng);
    }
    w.U32(static_cast<uint32_t>(response.timestamps.size()));
    for (const int64_t t : response.timestamps) w.I64(t);
    w.U64(static_cast<uint64_t>(response.expanded));
  }
  return w.Frame();
}

std::string EncodeAckFrame(Request::Op op, uint64_t epoch, uint64_t accepted,
                           uint64_t pending, const Json& id) {
  Writer w;
  w.U32(static_cast<uint32_t>(ResponseTag::kAck));
  PutId(&w, id);
  w.U32(static_cast<uint32_t>(op == Request::Op::kIngest ? OpTag::kIngest
                                                         : OpTag::kRollover));
  w.U64(epoch);
  w.U64(accepted);
  w.U64(pending);
  return w.Frame();
}

namespace {

// Status codes cross the wire as their enum value; anything out of range
// (a newer peer, corruption) degrades to kInternal rather than aliasing
// onto a meaningful code.
StatusCode CodeFromWire(uint32_t raw) {
  if (raw == 0 || raw > static_cast<uint32_t>(StatusCode::kInternal)) {
    return StatusCode::kInternal;
  }
  return static_cast<StatusCode>(raw);
}

}  // namespace

Result<FrameResponse> DecodeResponsePayload(std::string_view payload) {
  Reader r(payload);
  uint32_t tag_raw;
  if (!r.U32(&tag_raw)) return Truncated();
  FrameResponse out;
  out.tag = static_cast<ResponseTag>(tag_raw);
  switch (out.tag) {
    case ResponseTag::kJson: {
      uint8_t id_kind;
      if (!r.U8(&id_kind) || id_kind != 0) {
        return Status::InvalidArgument("bad json response frame");
      }
      out.json = std::string(r.rest());
      return out;
    }
    case ResponseTag::kPong: {
      HABIT_ASSIGN_OR_RETURN(out.id, GetId(&r));
      if (!r.Done()) {
        return Status::InvalidArgument("trailing bytes after pong frame");
      }
      return out;
    }
    case ResponseTag::kError: {
      HABIT_ASSIGN_OR_RETURN(out.id, GetId(&r));
      uint32_t code;
      std::string message;
      if (!r.U32(&code) || !r.Str(&message)) return Truncated();
      out.error = Status(CodeFromWire(code), std::move(message));
      return out;
    }
    case ResponseTag::kAck: {
      HABIT_ASSIGN_OR_RETURN(out.id, GetId(&r));
      uint32_t op_raw;
      if (!r.U32(&op_raw) || !r.U64(&out.epoch) || !r.U64(&out.accepted) ||
          !r.U64(&out.pending)) {
        return Truncated();
      }
      if (op_raw == static_cast<uint32_t>(OpTag::kIngest)) {
        out.ack_op = Request::Op::kIngest;
      } else if (op_raw == static_cast<uint32_t>(OpTag::kRollover)) {
        out.ack_op = Request::Op::kRollover;
      } else {
        return Status::InvalidArgument("bad ack op " +
                                       std::to_string(op_raw));
      }
      if (!r.Done()) {
        return Status::InvalidArgument("trailing bytes after ack frame");
      }
      return out;
    }
    case ResponseTag::kResults:
      break;
    default:
      return Status::InvalidArgument("unknown response tag " +
                                     std::to_string(tag_raw));
  }

  HABIT_ASSIGN_OR_RETURN(out.id, GetId(&r));
  uint8_t is_batch;
  uint32_t count;
  if (!r.U8(&is_batch) || !r.U32(&count)) return Truncated();
  out.batch = is_batch != 0;
  // Each result is at least 5 bytes; a hostile count cannot force a large
  // reservation past what the payload itself could hold.
  if (count > r.remaining() / 5 + 1) return Truncated();
  out.results.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t ok;
    if (!r.U8(&ok)) return Truncated();
    if (ok == 0) {
      uint32_t code;
      std::string message;
      if (!r.U32(&code) || !r.Str(&message)) return Truncated();
      out.results.emplace_back(Status(CodeFromWire(code),
                                      std::move(message)));
      continue;
    }
    api::ImputeResponse response;
    uint32_t points;
    if (!r.U32(&points)) return Truncated();
    if (points > r.remaining() / 16) return Truncated();
    response.path.reserve(points);
    for (uint32_t p = 0; p < points; ++p) {
      geo::LatLng ll;
      if (!r.F64(&ll.lat) || !r.F64(&ll.lng)) return Truncated();
      response.path.push_back(ll);
    }
    uint32_t n_ts;
    if (!r.U32(&n_ts)) return Truncated();
    if (n_ts > r.remaining() / 8) return Truncated();
    response.timestamps.reserve(n_ts);
    for (uint32_t t = 0; t < n_ts; ++t) {
      int64_t ts;
      if (!r.I64(&ts)) return Truncated();
      response.timestamps.push_back(ts);
    }
    uint64_t expanded;
    if (!r.U64(&expanded)) return Truncated();
    response.expanded = static_cast<size_t>(expanded);
    out.results.emplace_back(std::move(response));
  }
  if (!r.Done()) {
    return Status::InvalidArgument("trailing bytes after results frame");
  }
  return out;
}

std::string ResponseToJsonLine(const FrameResponse& response) {
  switch (response.tag) {
    case ResponseTag::kPong: {
      // Identical construction to the server's JSON ping path.
      Json frame = Json::Object();
      frame.Set("ok", Json::Bool(true));
      frame.Set("op", Json::String("ping"));
      if (!response.id.is_null()) frame.Set("id", response.id);
      return frame.Dump();
    }
    case ResponseTag::kError:
      return ErrorResponseLine(response.error, response.id);
    case ResponseTag::kJson:
      return response.json;
    case ResponseTag::kAck:
      // Identical construction to the server's JSON ingest/rollover path.
      return AckResponseLine(
          response.ack_op == Request::Op::kIngest ? "ingest" : "rollover",
          response.epoch, response.accepted, response.pending, response.id);
    case ResponseTag::kResults:
      if (!response.batch) {
        if (response.results.size() != 1) {
          return ErrorResponseLine(
              Status::Internal("malformed single-impute results frame"),
              response.id);
        }
        return ImputeResponseLine(response.results.front(), response.id);
      }
      return BatchResponseLine(response.results, response.id);
  }
  return ErrorResponseLine(Status::Internal("unhandled response tag"),
                           Json());
}

}  // namespace habit::server::frame
