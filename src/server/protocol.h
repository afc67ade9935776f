// The habit_serve line protocol: newline-delimited JSON frames, one
// request line in, one response line out, over TCP or a stdin/stdout
// pipe. Framing and parsing are hardened for network input — every
// malformed frame maps to a structured error response, never to a crash
// or a silently defaulted field.
//
// Requests (one JSON object per line):
//   {"op":"ping"}
//   {"op":"methods"}
//   {"op":"stats"}
//   {"op":"impute","model":"habit:load=/m.snap","request":{
//        "gap_start":{"lat":54.4,"lng":10.2},
//        "gap_end":{"lat":54.5,"lng":10.3},
//        "t_start":0,"t_end":3600,"vessel_type":"cargo"}}
//   {"op":"impute_batch","model":<spec>,"requests":[<request>,...]}
//   {"op":"ingest","trips":[{"trip_id":7,"mmsi":9,"vessel_type":"cargo",
//        "points":[{"lat":54.4,"lng":10.2,"ts":100,"sog":9.5,"cog":45},
//                  ...]},...]}
//   {"op":"rollover"}
//
// `t_start`/`t_end` default to 0 (no time model); `vessel_type` is
// optional and must be one of the ais::VesselType names. Any request may
// carry an "id" (string or number), echoed verbatim in the response so
// clients can pipeline frames over one connection. Unknown fields are
// rejected, not ignored: a typo ("lng" vs "lon") must fail loudly, the
// same contract as MethodSpec::CheckKnownKeys.
//
// `ingest` stages trip deltas for the serving process's epoch pipeline
// and `rollover` forces the next epoch boundary (see api/epoch.h); both
// answer the uniform ack frame
//   {"ok":true,"op":"ingest","epoch":E,"accepted":N,"pending":M}
// (accepted = trips staged by THIS frame, pending = builder backlog,
// epoch = the epoch currently served). Per-point `sog`/`cog` are optional
// and default to 0; `vessel_type` defaults to "other". Trip semantics
// (>= 2 points, strictly increasing timestamps, fresh trip ids) are
// validated by the pipeline, not the parser, so both protocols share one
// validator.
//
// Responses:
//   {"ok":true,...}                          op-specific payload
//   {"ok":false,"error":{"code":"InvalidArgument","message":"..."}}
// Batch responses carry per-query results — a query-level failure
// (e.g. Unreachable) is {"ok":false,...} *inside* "results" while the
// frame itself stays ok:true.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ais/ais.h"
#include "api/imputation_model.h"
#include "core/status.h"
#include "server/json.h"

namespace habit::server {

/// \brief One parsed protocol request.
struct Request {
  enum class Op {
    kPing,
    kMethods,
    kStats,
    kImpute,
    kImputeBatch,
    kIngest,
    kRollover,
  };
  Op op = Op::kPing;
  std::string model;  ///< registry spec string (impute ops only)
  /// The queries: exactly one for kImpute, 1..max_batch for kImputeBatch.
  std::vector<api::ImputeRequest> requests;
  /// The trip deltas (kIngest only): 1..max_batch per frame.
  std::vector<ais::Trip> trips;
  Json id;  ///< client correlation id (echoed); null when absent
};

/// Parses one request frame. `max_batch` bounds the per-frame query count
/// (a single frame must not buffer unbounded work); kInvalidArgument on
/// malformed JSON, unknown ops, missing/mistyped/unknown fields, and
/// oversized batches. With `require_model` false the "model" field of
/// impute ops becomes optional (Request::model stays "") — the shard
/// router's surface, where the manifest picks models and clients cannot:
/// the router rejects frames that DO name one, so a client cannot believe
/// a model choice that was silently overridden was honored.
Result<Request> ParseRequest(std::string_view line, size_t max_batch,
                             bool require_model = true);

/// The per-frame query count rule every impute path shares: a batch holds
/// 1..max_batch requests. kInvalidArgument naming the limit otherwise.
Status CheckBatchSize(size_t n, size_t max_batch);

/// Serializes one ImputeRequest as a protocol JSON object (client side:
/// bench_serve, tests, and doc examples build frames through this).
Json ImputeRequestToJson(const api::ImputeRequest& request);

/// Builds the full frame for a single-impute / batch request.
std::string EncodeImputeRequest(const std::string& model,
                                const api::ImputeRequest& request);
std::string EncodeImputeBatchRequest(
    const std::string& model, std::span<const api::ImputeRequest> requests);

/// One imputation result as a JSON object: {"ok":true,"path":[[lat,lng],
/// ...],"timestamps":[...],"expanded":n} or {"ok":false,"error":{...}}.
Json ImputeResultToJson(const Result<api::ImputeResponse>& result);

/// The ok:true frame for a single impute (the result object plus echoed
/// id) — a response line, without the trailing newline.
std::string ImputeResponseLine(const Result<api::ImputeResponse>& result,
                               const Json& id);

/// The ok:true frame for a batch: {"ok":true,"results":[...]}. Per-query
/// failures are embedded per-result; the frame itself is ok. Serializing
/// in-process ImputeBatch output through this yields byte-identical lines
/// to the server's — the equivalence the protocol tests assert.
std::string BatchResponseLine(
    std::span<const Result<api::ImputeResponse>> results, const Json& id);

/// One trip delta as a protocol JSON object (the "trips" array element).
Json TripToJson(const ais::Trip& trip);

/// Builds the full frame for an ingest / rollover request (client side:
/// the router's per-shard forwarding, tests, and the CI smokes).
std::string EncodeIngestRequest(std::span<const ais::Trip> trips);
std::string EncodeRolloverRequest();

/// The uniform ok:true ack for ingest/rollover: op name echoed, the
/// served epoch, trips accepted by this frame, and the builder backlog.
/// Rendering binary kAck frames through this yields byte-identical lines
/// to the JSON path's — the same contract the impute encoders keep.
std::string AckResponseLine(const std::string& op, uint64_t epoch,
                            uint64_t accepted, uint64_t pending,
                            const Json& id);

/// The ok:false frame for a frame-level error.
std::string ErrorResponseLine(const Status& status, const Json& id = Json());

}  // namespace habit::server
