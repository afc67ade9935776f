#include "router/router.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <thread>
#include <utility>

#include "api/registry.h"
#include "graph/snapshot.h"

namespace habit::router {

using server::Json;
using server::Request;

namespace {

// The serving spec for one snapshot: method + load= (+ map=). Build
// parameters from the manifest's base spec are deliberately dropped — a
// snapshot is self-describing, and the registry rejects build params
// alongside load= precisely so a spec can never serve a snapshot under a
// mismatched configuration.
Result<std::string> LoadSpecFor(const std::string& base_spec,
                                const std::string& snapshot_path,
                                bool map_snapshots) {
  HABIT_ASSIGN_OR_RETURN(const api::MethodSpec base,
                         api::MethodSpec::Parse(base_spec));
  api::MethodSpec spec;
  spec.method = base.method;
  spec.params["load"] = snapshot_path;
  if (map_snapshots) spec.params["map"] = "1";
  return spec.ToString();
}

std::string AbsolutePath(const std::string& dir, const std::string& path) {
  if (!path.empty() && path.front() == '/') return path;
  return dir.empty() ? path : dir + "/" + path;
}

// Fail-fast snapshot verification: O(1) header/trailer probe, stored
// checksum compared against the manifest's. Catches a swapped, stale, or
// truncated shard file at startup; payload bit rot is caught at load by
// the snapshot reader itself.
Status VerifySnapshot(const ShardEntry& entry, const std::string& abs_path,
                      const std::string& what) {
  auto info = graph::ProbeSnapshot(abs_path);
  if (!info.ok()) {
    return Status(info.status().code(),
                  what + " snapshot " + abs_path + ": " +
                      info.status().message());
  }
  if (info.value().checksum != entry.snapshot_checksum) {
    return Status::InvalidArgument(
        what + " snapshot " + abs_path + " checksum " +
        CellToHex(info.value().checksum) + " does not match the manifest's " +
        CellToHex(entry.snapshot_checksum) +
        " — the shard directory and manifest are out of sync");
  }
  return Status::OK();
}

}  // namespace

Router::Router(ShardManifest manifest,
               std::vector<std::shared_ptr<ShardBackend>> backends,
               const RouterOptions& options)
    : manifest_(std::move(manifest)),
      backends_(std::move(backends)),
      options_(options) {}

Result<std::unique_ptr<Router>> Router::Make(
    ShardManifest manifest, const std::string& manifest_dir,
    std::vector<std::shared_ptr<ShardBackend>> backends,
    const RouterOptions& options) {
  if (backends.empty()) {
    return Status::InvalidArgument("router needs at least one backend");
  }
  if (manifest.shards.empty()) {
    return Status::InvalidArgument("manifest lists no shards");
  }
  auto router = std::unique_ptr<Router>(
      new Router(std::move(manifest), std::move(backends), options));
  const ShardManifest& m = router->manifest_;

  router->shards_.reserve(m.shards.size());
  for (size_t i = 0; i < m.shards.size(); ++i) {
    const ShardEntry& entry = m.shards[i];
    const std::string abs = AbsolutePath(manifest_dir, entry.snapshot_path);
    HABIT_RETURN_NOT_OK(
        VerifySnapshot(entry, abs, "shard " + CellToHex(entry.parent_cell)));
    ShardRuntime runtime;
    runtime.entry = entry;
    HABIT_ASSIGN_OR_RETURN(
        runtime.model_spec,
        LoadSpecFor(m.spec, abs, options.map_snapshots));
    runtime.backend = router->backends_[i % router->backends_.size()].get();
    router->shard_by_cell_[entry.parent_cell] = i;
    router->shards_.push_back(std::move(runtime));
  }

  const std::string fallback_abs =
      AbsolutePath(manifest_dir, m.fallback.snapshot_path);
  HABIT_RETURN_NOT_OK(VerifySnapshot(m.fallback, fallback_abs, "fallback"));
  router->fallback_.entry = m.fallback;
  HABIT_ASSIGN_OR_RETURN(
      router->fallback_.model_spec,
      LoadSpecFor(m.spec, fallback_abs, options.map_snapshots));
  router->fallback_.backend = router->backends_.back().get();
  {
    // Row per shard plus the trailing fallback row (StatsIndexFor). Make
    // is not a constructor, so the analysis holds it to the same locking
    // rules as any other function.
    core::MutexLock lock(router->stats_mu_);
    router->shard_stats_.resize(router->shards_.size() + 1);
  }
  return router;
}

Router::RouteDecision Router::Decide(const api::ImputeRequest& request) const {
  const auto parent_of = [&](const geo::LatLng& p) -> hex::CellId {
    const hex::CellId fine = hex::LatLngToCell(p, manifest_.resolution);
    if (fine == hex::kInvalidCell) return hex::kInvalidCell;
    auto parent = hex::CellToParent(fine, manifest_.parent_res);
    return parent.ok() ? parent.value() : hex::kInvalidCell;
  };
  const hex::CellId ps = parent_of(request.gap_start);
  const hex::CellId pe = parent_of(request.gap_end);
  if (ps == hex::kInvalidCell || pe == hex::kInvalidCell) return {};
  const auto it_s = shard_by_cell_.find(ps);
  const auto it_e = shard_by_cell_.find(pe);
  if (ps == pe) {
    if (it_s == shard_by_cell_.end()) return {};  // unseen region
    return {it_s->second, "shard"};
  }
  // Endpoints in different parent cells: a shard whose overlap halo spans
  // both can still answer alone. Prefer the start endpoint's shard — a
  // deterministic choice, so identical requests always route identically.
  if (it_s != shard_by_cell_.end() || it_e != shard_by_cell_.end()) {
    const auto distance = hex::GridDistance(ps, pe);
    if (distance.ok() && distance.value() <= manifest_.halo_k) {
      if (it_s != shard_by_cell_.end()) return {it_s->second, "halo"};
      return {it_e->second, "halo"};
    }
  }
  return {};
}

std::string Router::HandleLine(std::string_view line) {
  {
    core::MutexLock lock(stats_mu_);
    ++frames_total_;
  }
  if (line.size() > options_.max_line_bytes) {
    return RejectFrame(Status::InvalidArgument(
        "frame of " + std::to_string(line.size()) +
        " bytes exceeds the limit of " +
        std::to_string(options_.max_line_bytes)));
  }
  auto parsed =
      server::ParseRequest(line, options_.max_batch, /*require_model=*/false);
  if (!parsed.ok()) return RejectFrame(parsed.status());
  const Request& request = parsed.value();
  switch (request.op) {
    case Request::Op::kPing: {
      Json frame = Json::Object();
      frame.Set("ok", Json::Bool(true));
      frame.Set("op", Json::String("ping"));
      if (!request.id.is_null()) frame.Set("id", request.id);
      return frame.Dump();
    }
    case Request::Op::kMethods:
      return RejectFrame(
          Status::InvalidArgument(
              "the router serves the manifest's shard models; 'methods' "
              "applies to habit_serve backends"),
          request.id);
    case Request::Op::kStats:
      return StatsLine(request.id);
    case Request::Op::kImpute:
    case Request::Op::kImputeBatch:
      if (!request.model.empty()) {
        return RejectFrame(
            Status::InvalidArgument(
                "the router picks the model per shard; drop the \"model\" "
                "field (to query one model directly, talk to habit_serve)"),
            request.id);
      }
      return HandleImpute(request);
    case Request::Op::kIngest:
    case Request::Op::kRollover:
      return HandleIngest(request);
  }
  return server::ErrorResponseLine(Status::Internal("unhandled op"));
}

std::string Router::OversizeLine() {
  {
    core::MutexLock lock(stats_mu_);
    ++frames_total_;
  }
  return RejectFrame(Status::InvalidArgument(
      "frame exceeds " + std::to_string(options_.max_line_bytes) + " bytes"));
}

std::string Router::RejectFrame(const Status& status, const Json& id) {
  {
    core::MutexLock lock(stats_mu_);
    ++frames_rejected_;
  }
  return server::ErrorResponseLine(status, id);
}

Result<std::vector<Json>> Router::CallShard(
    const ShardRuntime& runtime, size_t stats_index,
    std::span<const api::ImputeRequest> requests) {
  const std::string frame = server::EncodeImputeBatchRequest(
      runtime.model_spec, requests);
  const auto t0 = std::chrono::steady_clock::now();
  auto response = runtime.backend->Call(frame);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  {
    core::MutexLock lock(stats_mu_);
    shard_stats_[stats_index].latency_p50.Add(ms);
    shard_stats_[stats_index].latency_p99.Add(ms);
  }
  if (!response.ok()) return response.status();
  // The backend speaks the protocol we speak; anything else (a port that
  // answers but is not habit_serve, a truncated line) is a backend
  // failure, handled exactly like an unreachable one.
  auto parsed = Json::Parse(response.value());
  if (!parsed.ok()) {
    return Status::Internal(runtime.backend->Describe() +
                            " answered with a non-protocol line: " +
                            parsed.status().message());
  }
  const Json* ok = parsed.value().Find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return Status::Internal(runtime.backend->Describe() +
                            " answered with a non-protocol frame");
  }
  if (!ok->bool_value()) {
    const Json* error = parsed.value().Find("error");
    const Json* message =
        error != nullptr ? error->Find("message") : nullptr;
    return Status::Internal(
        runtime.backend->Describe() + " rejected the sub-frame: " +
        (message != nullptr && message->is_string() ? message->string_value()
                                                    : "unknown error"));
  }
  const Json* results = parsed.value().Find("results");
  if (results == nullptr || !results->is_array() ||
      results->items().size() != requests.size()) {
    return Status::Internal(runtime.backend->Describe() +
                            " answered with a mismatched results array");
  }
  return results->items();
}

Router::GroupOutcome Router::ExecuteGroup(
    size_t shard_index, std::span<const api::ImputeRequest> requests) {
  const ShardRuntime& planned =
      shard_index == kFallback ? fallback_ : shards_[shard_index];
  const size_t planned_stats = StatsIndexFor(shard_index);
  const size_t fallback_stats = StatsIndexFor(kFallback);
  {
    core::MutexLock lock(stats_mu_);
    shard_stats_[planned_stats].requests += requests.size();
  }
  Status failure = Status::OK();
  for (int attempt = 0; attempt <= options_.retries; ++attempt) {
    auto results = CallShard(planned, planned_stats, requests);
    if (results.ok()) return {results.MoveValue(), nullptr};
    failure = results.status();
    // A protocol-level rejection is deterministic (bad snapshot, bad
    // spec) — retrying the same backend cannot change the answer.
    if (failure.code() != StatusCode::kUnreachable) break;
  }
  if (shard_index != kFallback) {
    // Degrade: the full-graph fallback can answer anything this shard
    // could. One attempt, no retry — the fallback failing too means the
    // fleet is down, and a third round trip just delays the error.
    {
      core::MutexLock lock(stats_mu_);
      shard_stats_[planned_stats].degraded += requests.size();
      shard_stats_[fallback_stats].requests += requests.size();
    }
    auto results = CallShard(fallback_, fallback_stats, requests);
    if (results.ok()) return {results.MoveValue(), "degraded"};
    failure = results.status();
  }
  // Per-request error objects, same shape as a query-level failure — the
  // rest of the batch is unaffected.
  std::vector<Json> errors;
  errors.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    Json err = Json::Object();
    err.Set("ok", Json::Bool(false));
    Json detail = Json::Object();
    detail.Set("code", Json::String(StatusCodeToString(failure.code())));
    detail.Set("message", Json::String(failure.message()));
    err.Set("error", std::move(detail));
    errors.push_back(std::move(err));
  }
  return {std::move(errors), "unavailable"};
}

Result<Router::IngestAck> Router::ForwardIngestFrame(
    const ShardRuntime& runtime, const std::string& frame) {
  auto response = runtime.backend->Call(frame);
  if (!response.ok()) return response.status();
  auto parsed = Json::Parse(response.value());
  if (!parsed.ok()) {
    return Status::Internal(runtime.backend->Describe() +
                            " answered with a non-protocol line: " +
                            parsed.status().message());
  }
  const Json* ok = parsed.value().Find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return Status::Internal(runtime.backend->Describe() +
                            " answered with a non-protocol frame");
  }
  if (!ok->bool_value()) {
    // A backend started without --ingest-spec rejects the forward here
    // ("ingest is not enabled ..."); surface its own words.
    const Json* error = parsed.value().Find("error");
    const Json* message =
        error != nullptr ? error->Find("message") : nullptr;
    return Status::Internal(
        runtime.backend->Describe() + " rejected the forward: " +
        (message != nullptr && message->is_string() ? message->string_value()
                                                    : "unknown error"));
  }
  const Json* epoch = parsed.value().Find("epoch");
  const Json* accepted = parsed.value().Find("accepted");
  const Json* pending = parsed.value().Find("pending");
  if (epoch == nullptr || !epoch->is_number() || accepted == nullptr ||
      !accepted->is_number() || pending == nullptr ||
      !pending->is_number()) {
    return Status::Internal(runtime.backend->Describe() +
                            " acked without epoch/accepted/pending");
  }
  IngestAck ack;
  ack.epoch = static_cast<uint64_t>(epoch->number_value());
  ack.accepted = static_cast<uint64_t>(accepted->number_value());
  ack.pending = static_cast<uint64_t>(pending->number_value());
  return ack;
}

std::string Router::HandleIngest(const Request& request) {
  // One forward per DISTINCT backend, planned in first-seen shard order
  // (deterministic). Shards may share a backend, and the fallback usually
  // shares one with a shard — a trip must reach each backend exactly once
  // or the second copy trips the delta's duplicate-trip validation.
  struct Forward {
    ShardBackend* backend = nullptr;
    const ShardRuntime* runtime = nullptr;  ///< representative, for errors
    std::vector<size_t> stats_rows;         ///< every row behind backend
    std::vector<size_t> trip_indices;       ///< deduped, ingest only
  };
  std::vector<Forward> forwards;
  const auto forward_for = [&](const ShardRuntime& runtime,
                               size_t stats_row) -> Forward& {
    for (Forward& f : forwards) {
      if (f.backend == runtime.backend) {
        if (std::find(f.stats_rows.begin(), f.stats_rows.end(), stats_row) ==
            f.stats_rows.end()) {
          f.stats_rows.push_back(stats_row);
        }
        return f;
      }
    }
    forwards.push_back(Forward{runtime.backend, &runtime, {stats_row}, {}});
    return forwards.back();
  };

  if (request.op == Request::Op::kRollover) {
    // Every backend crosses the epoch boundary (mixed epochs between the
    // acks are fine — see the header comment).
    for (size_t i = 0; i < shards_.size(); ++i) {
      forward_for(shards_[i], StatsIndexFor(i));
    }
    forward_for(fallback_, StatsIndexFor(kFallback));
  } else {
    for (size_t t = 0; t < request.trips.size(); ++t) {
      const ais::Trip& trip = request.trips[t];
      // The fallback first: it is the authoritative full-graph cumulative
      // set, every trip lands there.
      Forward& fb = forward_for(fallback_, StatsIndexFor(kFallback));
      fb.trip_indices.push_back(t);
      // Then every shard whose core parent cell contains one of the
      // trip's points — the shard keeps serving its region from fresh
      // data after its own rollover. Points in unsharded regions are
      // covered by the fallback alone.
      std::vector<size_t> owners;
      for (const ais::AisRecord& p : trip.points) {
        const hex::CellId fine =
            hex::LatLngToCell(p.pos, manifest_.resolution);
        if (fine == hex::kInvalidCell) continue;
        const auto parent = hex::CellToParent(fine, manifest_.parent_res);
        if (!parent.ok()) continue;
        const auto it = shard_by_cell_.find(parent.value());
        if (it == shard_by_cell_.end()) continue;
        if (std::find(owners.begin(), owners.end(), it->second) ==
            owners.end()) {
          owners.push_back(it->second);
        }
      }
      for (const size_t s : owners) {
        Forward& f = forward_for(shards_[s], StatsIndexFor(s));
        if (f.trip_indices.empty() || f.trip_indices.back() != t) {
          f.trip_indices.push_back(t);
        }
      }
    }
  }

  // Encode each backend's sub-frame, then fan out concurrently (a
  // rollover ack can block on a full epoch rebuild; a slow backend must
  // not serialize behind a fast one).
  std::vector<std::string> frames(forwards.size());
  for (size_t g = 0; g < forwards.size(); ++g) {
    if (request.op == Request::Op::kRollover) {
      frames[g] = server::EncodeRolloverRequest();
    } else {
      std::vector<ais::Trip> sub;
      sub.reserve(forwards[g].trip_indices.size());
      for (const size_t t : forwards[g].trip_indices) {
        sub.push_back(request.trips[t]);
      }
      frames[g] = server::EncodeIngestRequest(sub);
    }
  }
  std::vector<Result<IngestAck>> acks(forwards.size(),
                                      Status::Internal("not forwarded"));
  const auto run = [&](size_t g) {
    acks[g] = ForwardIngestFrame(*forwards[g].runtime, frames[g]);
  };
  if (forwards.size() == 1) {
    run(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(forwards.size());
    for (size_t g = 0; g < forwards.size(); ++g) {
      threads.emplace_back(run, g);
    }
    for (std::thread& t : threads) t.join();
  }

  // Record acked epochs before judging failures, so a partially-applied
  // frame still shows the true fleet spread in `stats`.
  {
    core::MutexLock lock(stats_mu_);
    for (size_t g = 0; g < forwards.size(); ++g) {
      if (!acks[g].ok()) continue;
      for (const size_t row : forwards[g].stats_rows) {
        shard_stats_[row].epoch = acks[g].value().epoch;
      }
    }
  }
  for (size_t g = 0; g < forwards.size(); ++g) {
    if (acks[g].ok()) continue;
    // Honest partial-failure report: backends that did ack keep their
    // staged deltas, so a blind client re-send of this exact frame gets
    // duplicate-trip rejections from them. The client reconciles via
    // `stats` (per-shard epoch) instead.
    return RejectFrame(
        Status(acks[g].status().code(),
               acks[g].status().message() +
                   (forwards.size() > 1
                        ? " (other backends acked and keep their staged "
                          "deltas — do not blindly re-send this frame)"
                        : "")),
        request.id);
  }
  uint64_t min_epoch = UINT64_MAX;
  uint64_t accepted = 0;
  uint64_t pending = 0;
  for (const Result<IngestAck>& ack : acks) {
    min_epoch = std::min(min_epoch, ack.value().epoch);
    accepted += ack.value().accepted;
    pending += ack.value().pending;
  }
  return server::AckResponseLine(
      request.op == Request::Op::kIngest ? "ingest" : "rollover",
      min_epoch == UINT64_MAX ? 0 : min_epoch, accepted, pending,
      request.id);
}

std::string Router::HandleImpute(const Request& request) {
  for (size_t i = 0; i < request.requests.size(); ++i) {
    const Status valid = api::ValidateRequest(request.requests[i]);
    if (!valid.ok()) {
      const std::string field = request.op == Request::Op::kImpute
                                    ? "request"
                                    : "requests[" + std::to_string(i) + "]";
      return RejectFrame(
          Status::InvalidArgument(field + ": " + valid.message()),
          request.id);
    }
  }
  {
    core::MutexLock lock(stats_mu_);
    for (const api::ImputeRequest& r : request.requests) {
      if (r.vessel_id.has_value()) {
        vessels_.AddInt(static_cast<uint64_t>(*r.vessel_id));
      }
    }
  }

  // Group request indices by target shard (std::map: deterministic group
  // order, fallback's kFallback sentinel sorts last). A shard group can mix
  // shard and halo requests; each keeps its own route.
  std::map<size_t, std::vector<size_t>> groups;
  std::vector<RouteDecision> decisions(request.requests.size());
  for (size_t i = 0; i < request.requests.size(); ++i) {
    decisions[i] = Decide(request.requests[i]);
    groups[decisions[i].shard].push_back(i);
  }

  // Fan out: one sub-frame per group, concurrently when there is more
  // than one (each group blocks on its own backend round trip; a slow
  // shard must not serialize behind a fast one).
  std::vector<std::pair<size_t, const std::vector<size_t>*>> order;
  order.reserve(groups.size());
  for (auto& [shard, group] : groups) order.emplace_back(shard, &group);
  std::vector<GroupOutcome> outcomes(order.size());
  const auto run = [&](size_t g) {
    std::vector<api::ImputeRequest> sub;
    sub.reserve(order[g].second->size());
    for (const size_t i : *order[g].second) {
      sub.push_back(request.requests[i]);
    }
    outcomes[g] = ExecuteGroup(order[g].first, sub);
  };
  if (order.size() == 1) {
    run(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(order.size());
    for (size_t g = 0; g < order.size(); ++g) {
      threads.emplace_back(run, g);
    }
    for (std::thread& t : threads) t.join();
  }

  // Reassemble in request order. Result objects are spliced from the
  // backend responses via parse + re-dump — Json::Dump is canonical, so
  // the bytes match what a single-process server would have emitted for
  // the same query against the same model.
  std::vector<Json> results(request.requests.size());
  std::vector<const char*> routes(request.requests.size());
  for (size_t g = 0; g < order.size(); ++g) {
    const std::vector<size_t>& indices = *order[g].second;
    for (size_t k = 0; k < indices.size(); ++k) {
      const size_t i = indices[k];
      results[i] = std::move(outcomes[g].results[k]);
      routes[i] = outcomes[g].failover != nullptr ? outcomes[g].failover
                                                  : decisions[i].strategy;
    }
  }

  if (request.op == Request::Op::kImpute) {
    // Same members a habit_serve single-impute response carries, plus the
    // route (appended after, so the shared prefix stays byte-comparable).
    Json frame = Json::Object();
    for (const auto& [key, value] : results.front().members()) {
      frame.Set(key, value);
    }
    frame.Set("route", Json::String(routes.front()));
    if (!request.id.is_null()) frame.Set("id", request.id);
    return frame.Dump();
  }
  Json frame = Json::Object();
  frame.Set("ok", Json::Bool(true));
  Json arr = Json::Array();
  for (Json& result : results) arr.Append(std::move(result));
  frame.Set("results", std::move(arr));
  Json route_arr = Json::Array();
  for (const char* route : routes) route_arr.Append(Json::String(route));
  frame.Set("routes", std::move(route_arr));
  if (!request.id.is_null()) frame.Set("id", request.id);
  return frame.Dump();
}

std::string Router::StatsLine(const Json& id) {
  Json frame = Json::Object();
  frame.Set("ok", Json::Bool(true));
  frame.Set("parent_res", Json::Number(manifest_.parent_res));
  frame.Set("halo_k", Json::Number(manifest_.halo_k));
  frame.Set("resolution", Json::Number(manifest_.resolution));
  frame.Set("spec", Json::String(manifest_.spec));
  frame.Set("backends", Json::Number(static_cast<double>(backends_.size())));

  core::MutexLock lock(stats_mu_);
  frame.Set("frames", Json::Number(static_cast<double>(frames_total_)));
  frame.Set("frames_rejected",
            Json::Number(static_cast<double>(frames_rejected_)));
  // The guarded shard_stats_ rows are read at the call sites below, all
  // under the lock held for the rest of this function; the lambda only
  // formats the copies it is handed.
  const auto shard_json = [](const ShardRuntime& runtime,
                             const ShardStats& stats, Json cell) {
    Json entry = Json::Object();
    entry.Set("cell", std::move(cell));
    entry.Set("backend", Json::String(runtime.backend->Describe()));
    entry.Set("requests", Json::Number(static_cast<double>(stats.requests)));
    entry.Set("degraded", Json::Number(static_cast<double>(stats.degraded)));
    entry.Set("epoch", Json::Number(static_cast<double>(stats.epoch)));
    entry.Set("latency_count",
              Json::Number(static_cast<double>(stats.latency_p50.count())));
    if (stats.latency_p50.count() > 0) {
      entry.Set("latency_p50_ms", Json::Number(stats.latency_p50.Estimate()));
      entry.Set("latency_p99_ms", Json::Number(stats.latency_p99.Estimate()));
    }
    return entry;
  };
  Json shards = Json::Array();
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards.Append(shard_json(
        shards_[i], shard_stats_[i],
        Json::String(CellToHex(shards_[i].entry.parent_cell))));
  }
  shards.Append(shard_json(fallback_, shard_stats_[shards_.size()],
                           Json::String("fallback")));
  frame.Set("shards", std::move(shards));
  frame.Set("distinct_vessels", Json::Number(vessels_.Estimate()));
  if (!id.is_null()) frame.Set("id", id);
  return frame.Dump();
}

}  // namespace habit::router
