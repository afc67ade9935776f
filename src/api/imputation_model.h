// The unified imputation query surface. Every method in the repo — HABIT,
// its vessel-type-aware variant, and the GTI / PaLMTO / SLI baselines —
// is served behind one polymorphic ImputationModel, so benches, examples,
// tests, and (eventually) a serving frontend program against a single
// stable interface instead of per-method signatures.
//
//   auto model = habit::api::MakeModel("habit:r=9,p=w", train_trips);
//   habit::api::ImputeRequest req{gap_start, gap_end, t0, t1};
//   auto response = (*model)->Impute(req);
//
// Models are constructed by name through the ModelRegistry (registry.h);
// batch workloads go through ImputeBatch, the one batch executor: workers
// claim requests from a shared cursor and reuse a search scratch each.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ais/ais.h"
#include "core/status.h"
#include "geo/polyline.h"

namespace habit::graph {
struct SearchScratch;
}  // namespace habit::graph

namespace habit::api {

/// \brief One imputation query: a reporting gap to fill.
///
/// Subsumes every per-method signature: gap endpoints (all methods),
/// boundary timestamps (methods with a time model assign per-point times),
/// and an optional vessel type (routes type-aware models to the matching
/// per-type graph; typeless models ignore it).
struct ImputeRequest {
  geo::LatLng gap_start;  ///< last reported position before the gap
  geo::LatLng gap_end;    ///< first reported position after the gap
  int64_t t_start = 0;    ///< timestamp of gap_start, unix seconds
  int64_t t_end = 0;      ///< timestamp of gap_end, unix seconds
  /// Vessel type of the querying vessel, when known.
  std::optional<ais::VesselType> vessel_type;
  /// Identity (MMSI) of the querying vessel, when known. Metadata only:
  /// no model conditions on it — it feeds the serving layer's
  /// distinct-vessel HyperLogLog, so it must never affect imputation
  /// output (byte-identity across the router depends on that).
  std::optional<int64_t> vessel_id;
};

/// Largest |t_start| and |t_end| a request may carry: 2^53, the largest
/// integer a JSON number holds exactly. In-process, JSON and binary callers
/// share this one limit, and with it a gap's t_end - t_start never
/// overflows int64_t.
inline constexpr int64_t kMaxAbsTimestamp = int64_t{1} << 53;

/// \brief Validates a request before it reaches any model.
///
/// kInvalidArgument when either endpoint is non-finite or outside valid
/// geographic bounds, when a timestamp lies outside
/// [-kMaxAbsTimestamp, kMaxAbsTimestamp], or when the time span is
/// negative (t_end < t_start; an empty span t_end == t_start is legal —
/// such requests carry no time model and get no interpolated timestamps).
/// Every adapter's Impute /
/// ImputeBatch applies this uniformly, and the serving frontend rejects
/// invalid requests before resolving a model, so garbage input never
/// reaches H3 indexing or timestamp interpolation — and never triggers a
/// multi-second snapshot load.
Status ValidateRequest(const ImputeRequest& request);

/// \brief One imputed gap fill.
struct ImputeResponse {
  /// The imputed path, starting at the gap start point and ending at the
  /// gap end point.
  geo::Polyline path;
  /// Timestamps assigned to `path` points by arc-length interpolation
  /// between the boundary times (same size as `path`; empty when the
  /// request carried no time span).
  std::vector<int64_t> timestamps;
  /// Search effort (settled nodes / generated tokens), 0 when the method
  /// does not search.
  size_t expanded = 0;
};

/// \brief Abstract imputation method: built once from training trips,
/// queried many times.
///
/// Implementations adapt the concrete frameworks (see adapters.h) and are
/// constructed through the ModelRegistry. All queries are const and safe
/// to issue repeatedly; per-query failures (unreachable endpoints, query
/// timeouts) surface as non-OK Results, never as exceptions.
class ImputationModel {
 public:
  /// \brief Where a batch's workers come from: runs `body` on up to
  /// `max_workers` threads at once and returns once every call has
  /// returned. A non-OK status fails every request of the batch with it.
  using WorkerSource = std::function<Status(
      size_t max_workers, const std::function<void()>& body)>;

  virtual ~ImputationModel() = default;

  /// Display name of the method ("HABIT", "GTI", ...).
  virtual std::string Name() const = 0;

  /// Human-readable parameterization ("r=9 t=250 p=w"), stable per model.
  virtual std::string Configuration() const = 0;

  /// Answers one imputation query.
  Result<ImputeResponse> Impute(const ImputeRequest& request) const;

  /// \brief Answers a batch of queries; result i corresponds to request i.
  ///
  /// The one batch executor. Requests are ordered once by ClaimKey; each
  /// worker then claims the next position from a cursor local to this
  /// call, validates the request, imputes it with a search scratch it
  /// allocated for this call, and writes the response at the request's
  /// original index. No worker waits on a fixed share of the batch.
  ///
  /// Workers come from `workers` when given (the server passes its pool);
  /// otherwise the calling thread works alongside threads=N-1 spawned
  /// ones (a spawn the OS refuses leaves fewer workers). Answers do not
  /// depend on the worker count, the claim order or the scratch: every
  /// path, timestamp, `expanded` count and error is the same as one
  /// serial Impute per request. When `query_seconds` is non-null it
  /// receives the per-query wall time (one entry per request, including
  /// failed ones) — the latency the paper's Table 4 reports.
  std::vector<Result<ImputeResponse>> ImputeBatch(
      std::span<const ImputeRequest> requests,
      std::vector<double>* query_seconds = nullptr,
      const WorkerSource& workers = nullptr) const;

  /// Wall-clock seconds the model took to build (0 for buildless methods).
  double BuildSeconds() const { return build_seconds_; }

  /// In-memory model footprint in bytes.
  virtual size_t SizeBytes() const = 0;

  /// Persisted-model footprint in bytes (Table 2's "storage size").
  /// Defaults to the in-memory footprint for methods without a dedicated
  /// serialization format.
  virtual size_t SerializedSizeBytes() const { return SizeBytes(); }

 protected:
  /// Answers one request that passed ValidateRequest, reusing the calling
  /// worker's `scratch` (methods that do not search ignore it).
  virtual Result<ImputeResponse> ImputeValidated(
      const ImputeRequest& request, graph::SearchScratch* scratch) const = 0;

  /// Batch claim-order key of one request, computed once per request:
  /// workers claim in ascending key order, equal keys in input order. The
  /// default keys every request alike, so claims follow the input order.
  virtual uint64_t ClaimKey(const ImputeRequest& request) const;

  /// Set by factories after timing the build.
  double build_seconds_ = 0;
  /// In-process batch workers when ImputeBatch gets no WorkerSource (the
  /// threads= spec parameter); set by factories.
  int batch_threads_ = 1;
};

}  // namespace habit::api
