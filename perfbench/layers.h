// Per-layer probes for the traced run. Each probe calls one layer's public
// functions directly, from the benchmark's own code, and records a span
// around every call; the per-layer metrics are computed from those spans.
//
// Every workload's traced run runs every probe on its own model, trips
// and gaps, so each per-layer metric exists for every workload. Probes of
// a layer the workload's end-to-end path does not cross (the router on
// bulk, the epoch pipeline on serve) run on a slice of the workload's
// trips to bound their cost; the benchmark README says which.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ais/ais.h"
#include "api/imputation_model.h"
#include "common.h"
#include "core/status.h"
#include "habit/framework.h"

namespace perfbench {

/// What the probes run on: the workload's served model and its inputs.
struct LayerInputs {
  const core::HabitFramework* framework = nullptr;  ///< the served model
  /// A snapshot of `framework` (the in-process server, batch and router
  /// probes serve it with map=1, as the served workloads do).
  std::string snapshot;
  std::vector<api::ImputeRequest> gaps;
  std::vector<ais::Trip> side_trips;  ///< the slice foreign probes use
  int resolution = 9;
  std::string work_dir;
  /// server.encode_us times BatchResponseLine (the JSON path the router
  /// speaks) instead of the binary results frame.
  bool json_encode = false;
  /// Requests in the api.batch_speedup batch (the gaps tiled or trimmed).
  size_t batch_target = 4096;
};

/// Stage-by-stage replay of Imputer::Impute through its public pieces
/// (SnapCandidates, RunSearch, ProjectCell, RdpSimplify, timestamp
/// interpolation): habit.snap_us, habit.snap_candidates, graph.search_us,
/// graph.expanded_p50/p99, graph.expanded_per_cell, habit.post_us,
/// habit.impute_self_us, graph.scratch_init_us. Fails unless every
/// replayed answer equals Imputer::Impute's byte for byte.
habit::Status ProbeImputer(const LayerInputs& in, Tracer* tracer,
                           MetricSink* sink);

/// The model build split into TripsToTable, ComputeCellStats,
/// ComputeTransitionStats, BuildTransitionGraph and Digraph::Freeze
/// (habit.build_*_s, graph.freeze_s). Returns the built framework.
habit::Result<std::unique_ptr<core::HabitFramework>> StagedBuild(
    const std::vector<ais::Trip>& trips, int resolution, Tracer* tracer,
    MetricSink* sink);

/// graph.snapshot_save_s (SaveModelSnapshot to `path`) and
/// graph.snapshot_load_ms (a map=1 model load of it, median of five).
habit::Status ProbeSnapshot(const core::HabitFramework& framework,
                            const std::string& path, Tracer* tracer,
                            MetricSink* sink);

/// api.batch_speedup (warmed ImputeBatch at threads=1 over threads=4) and
/// api.batch_overhead_us (a 32-gap ImputeBatch minus the Imputer::Impute
/// calls of the same chunk on one reused scratch, per query).
habit::Status ProbeBatch(const LayerInputs& in, Tracer* tracer,
                         MetricSink* sink);

/// In-process server::Server with 4 workers over the snapshot:
/// server.decode_us, server.parse_us, server.encode_us, server.handle_us,
/// server.handle_vs_batch, plus the in-process server's
/// api.cache_hit_ratio and server.frames_rejected. Sets `handle_us` to
/// the median HandleFrame time. With `wire_probe` (the bulk workload,
/// which serves nothing over TCP end to end) it also listens on loopback
/// and measures server.wire_us, server.queue_ms and loadgen.late_p99_ms.
habit::Status ProbeServer(const LayerInputs& in, bool wire_probe,
                          Tracer* tracer, MetricSink* sink,
                          double* handle_us);

/// router::Router over a LocalBackend wrapped in a timing ShardBackend:
/// router.handle_us, router.backend_us, router.self_us, router.fanout and
/// the route shares. Builds shards from `in.side_trips` first (timing
/// router.shard_build_s) unless `manifest_path` names a built fleet.
habit::Status ProbeRouter(const LayerInputs& in,
                          const std::string& manifest_path, Tracer* tracer,
                          MetricSink* sink);

/// In-process epoch pipeline (Server::EnableIngest) on `in.side_trips`:
/// half seeds epoch 0, the rest arrives as binary ingest frames
/// (api.ingest_ack_ms) closed by one rollover (api.epoch_build_s from the
/// stats epoch object).
habit::Status ProbeEpoch(const LayerInputs& in, Tracer* tracer,
                         MetricSink* sink);

}  // namespace perfbench
