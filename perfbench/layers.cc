#include "layers.h"

#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>

#include "api/adapters.h"
#include "api/registry.h"
#include "check.h"
#include "geo/polyline.h"
#include "graph/search.h"
#include "habit/graph_builder.h"
#include "habit/serialize.h"
#include "hexgrid/hexgrid.h"
#include "loadgen.h"
#include "router/backend.h"
#include "router/manifest.h"
#include "router/router.h"
#include "router/shard_builder.h"
#include "server/frame.h"
#include "server/protocol.h"
#include "server/server.h"

namespace perfbench {

namespace hex = habit::hex;
namespace geo = habit::geo;
using habit::Result;
using habit::Status;

namespace {

constexpr size_t kMaxBatch = 4096;
constexpr size_t kFrameSize = 32;
constexpr size_t kReplayGaps = 512;
constexpr size_t kProbeFrames = 32;

// Times `fn` as one span named `name`; returns its duration in ns.
template <typename Fn>
int64_t Timed(Tracer* tracer, const char* name, int64_t parent,
              int64_t request, Fn&& fn) {
  const int64_t start = NowNs();
  fn();
  const int64_t end = NowNs();
  tracer->Record(name, start, end, parent, request);
  return end - start;
}

std::vector<std::vector<api::ImputeRequest>> Frames(
    const std::vector<api::ImputeRequest>& gaps) {
  std::vector<std::vector<api::ImputeRequest>> frames;
  for (size_t begin = 0;
       begin + kFrameSize <= gaps.size() && frames.size() < kProbeFrames;
       begin += kFrameSize) {
    frames.emplace_back(gaps.begin() + static_cast<ptrdiff_t>(begin),
                        gaps.begin() + static_cast<ptrdiff_t>(begin + kFrameSize));
  }
  return frames;
}

std::string BinaryBatchFrame(const std::string& model,
                             const std::vector<api::ImputeRequest>& requests,
                             double id) {
  server::Request request;
  request.op = server::Request::Op::kImputeBatch;
  request.model = model;
  request.requests = requests;
  request.id = server::Json::Number(id);
  return server::frame::EncodeRequestFrame(request);
}

// Imputer::Impute, stage by stage, through the imputer's public pieces.
// Every line mirrors habit/imputer.cc so the answer is the same bytes; the
// probe fails loudly if it ever is not.
Result<core::Imputation> ReplayImpute(const core::HabitFramework& fw,
                                      const api::ImputeRequest& req,
                                      graph::SearchScratch* scratch,
                                      Tracer* tracer, int64_t parent,
                                      int64_t rid, size_t* candidates) {
  const core::Imputer& imputer = fw.imputer();
  const graph::CompactGraph& g = fw.graph();
  const core::HabitConfig& config = fw.config();
  const geo::LatLng& gap_start = req.gap_start;
  const geo::LatLng& gap_end = req.gap_end;
  std::vector<hex::CellId> src;
  std::vector<hex::CellId> dst;
  Timed(tracer, "habit.snap", parent, rid, [&] {
    src = imputer.SnapCandidates(gap_start, core::Imputer::SnapRole::kSource);
  });
  Timed(tracer, "habit.snap", parent, rid, [&] {
    dst = imputer.SnapCandidates(gap_end, core::Imputer::SnapRole::kTarget);
  });
  *candidates = src.size() + dst.size();
  if (src.empty() || dst.empty()) {
    return Status::Unreachable(
        "gap endpoint could not be snapped to the transition graph");
  }
  for (const hex::CellId s : src) {
    if (s == dst.front() &&
        s == hex::LatLngToCell(gap_end, config.resolution)) {
      core::Imputation result;
      result.cells = {s};
      result.path = {gap_start, gap_end};
      result.timestamps = {req.t_start, req.t_end};
      return result;
    }
  }
  const double cell_pitch_m =
      hex::EdgeLengthMeters(config.resolution) * 1.7320508;
  std::vector<graph::SearchSeed> seeds;
  for (const hex::CellId s : src) {
    const graph::NodeIndex idx = g.IndexOf(s);
    if (idx == graph::kInvalidNodeIndex) continue;
    seeds.push_back(
        {idx, geo::HaversineMeters(gap_start, hex::CellToLatLng(s)) /
                  cell_pitch_m});
  }
  std::vector<graph::NodeIndex> target_idx;
  for (const hex::CellId d : dst) {
    const graph::NodeIndex idx = g.IndexOf(d);
    if (idx != graph::kInvalidNodeIndex) target_idx.push_back(idx);
  }
  std::sort(target_idx.begin(), target_idx.end());
  auto is_target = [&](graph::NodeIndex u) {
    return std::binary_search(target_idx.begin(), target_idx.end(), u);
  };
  graph::CsrSearch run;
  Timed(tracer, "graph.search", parent, rid, [&] {
    run = graph::RunSearch(
        g, seeds, is_target, [](graph::NodeIndex) { return 0.0; }, *scratch);
  });
  if (!run.found) {
    return Status::Unreachable(
        "no snap candidate pair is connected in the transition graph");
  }
  core::Imputation result;
  result.expanded = run.expanded;
  for (const graph::NodeIndex i : graph::ReconstructPath(*scratch, run.reached)) {
    result.cells.push_back(static_cast<hex::CellId>(g.IdOf(i)));
  }
  Timed(tracer, "habit.post", parent, rid, [&] {
    geo::Polyline line;
    line.reserve(result.cells.size() + 2);
    line.push_back(gap_start);
    for (const hex::CellId c : result.cells) {
      const geo::LatLng p = imputer.ProjectCell(c);
      if (geo::HaversineMeters(line.back(), p) > 1.0) line.push_back(p);
    }
    if (geo::HaversineMeters(line.back(), gap_end) > 1.0 || line.size() == 1) {
      line.push_back(gap_end);
    } else {
      line.back() = gap_end;
    }
    result.path = geo::RdpSimplify(line, config.rdp_tolerance_m);
    result.timestamps.resize(result.path.size(), req.t_start);
    const double total = geo::PolylineLengthMeters(result.path);
    if (total > 0 && req.t_end > req.t_start) {
      double acc = 0;
      for (size_t i = 1; i < result.path.size(); ++i) {
        acc += geo::HaversineMeters(result.path[i - 1], result.path[i]);
        result.timestamps[i] =
            req.t_start + static_cast<int64_t>(std::llround(
                              (req.t_end - req.t_start) * (acc / total)));
      }
    } else if (!result.timestamps.empty()) {
      result.timestamps.back() = req.t_end;
    }
  });
  return result;
}

bool SameImputation(const Result<core::Imputation>& a,
                    const Result<core::Imputation>& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) {
    return a.status().code() == b.status().code() &&
           a.status().message() == b.status().message();
  }
  const core::Imputation& x = a.value();
  const core::Imputation& y = b.value();
  if (x.path.size() != y.path.size() || x.cells != y.cells ||
      x.timestamps != y.timestamps || x.expanded != y.expanded) {
    return false;
  }
  return x.path.empty() ||
         std::memcmp(x.path.data(), y.path.data(),
                     x.path.size() * sizeof(geo::LatLng)) == 0;
}

// Reads one number out of a stats line: `object`.`key` (object "" = top).
double StatsNumber(const std::string& line, const std::string& object,
                   const std::string& key) {
  auto parsed = server::Json::Parse(line);
  if (!parsed.ok()) return 0.0;
  const server::Json* scope = &parsed.value();
  if (!object.empty()) scope = scope->Find(object);
  if (scope == nullptr) return 0.0;
  const server::Json* v = scope->Find(key);
  return v != nullptr && v->is_number() ? v->number_value() : 0.0;
}

double CacheHitRatio(const api::ModelCache::Stats& s) {
  const double gets = static_cast<double>(s.hits + s.misses + s.coalesced);
  return gets > 0 ? static_cast<double>(s.hits) / gets : 0.0;
}

// ShardBackend decorator that records one span per Call, parented to the
// router frame span currently being handled.
class TimingBackend : public router::ShardBackend {
 public:
  TimingBackend(std::shared_ptr<router::ShardBackend> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  Result<std::string> Call(const std::string& line) override {
    const int64_t start = NowNs();
    auto response = inner_->Call(line);
    tracer_->Record("router.backend", start, NowNs(), parent_.load(),
                    request_.load());
    return response;
  }
  std::string Describe() const override { return inner_->Describe(); }

  void SetParent(int64_t parent, int64_t request) {
    parent_.store(parent);
    request_.store(request);
  }

 private:
  std::shared_ptr<router::ShardBackend> inner_;
  Tracer* tracer_;
  std::atomic<int64_t> parent_{Tracer::kNoParent};
  std::atomic<int64_t> request_{-1};
};

}  // namespace

Status ProbeImputer(const LayerInputs& in, Tracer* tracer, MetricSink* sink) {
  const core::HabitFramework& fw = *in.framework;
  graph::SearchScratch scratch;
  graph::SearchScratch reference_scratch;
  std::vector<double> candidates;
  std::vector<double> expanded;
  std::vector<double> per_cell;
  const size_t n = std::min(in.gaps.size(), kReplayGaps);
  for (size_t i = 0; i < n; ++i) {
    const api::ImputeRequest& req = in.gaps[i];
    const int64_t root =
        tracer->Open("habit.impute", Tracer::kNoParent, static_cast<int64_t>(i));
    size_t cands = 0;
    Result<core::Imputation> replay = ReplayImpute(
        fw, req, &scratch, tracer, root, static_cast<int64_t>(i), &cands);
    tracer->Close(root);
    const Result<core::Imputation> reference = fw.imputer().Impute(
        req.gap_start, req.gap_end, req.t_start, req.t_end,
        &reference_scratch);
    if (!SameImputation(replay, reference)) {
      return Status::Internal("stage-by-stage replay of gap " +
                              std::to_string(i) +
                              " differs from Imputer::Impute");
    }
    candidates.push_back(static_cast<double>(cands));
    if (replay.ok() && replay.value().expanded > 0) {
      expanded.push_back(static_cast<double>(replay.value().expanded));
      per_cell.push_back(static_cast<double>(replay.value().expanded) /
                         static_cast<double>(replay.value().cells.size()));
    }
  }
  std::vector<double> scratch_us;
  for (int i = 0; i < 32; ++i) {
    Timed(tracer, "graph.scratch_init", Tracer::kNoParent, i, [&] {
      graph::SearchScratch fresh;
      fresh.Prepare(fw.graph().num_nodes());
    });
  }
  sink->Set("habit.snap_us", Median(tracer->PerRequestSumUs("habit.snap")),
            "us", n);
  sink->Set("habit.snap_candidates", Median(candidates), "count", n);
  sink->Set("graph.search_us", Median(tracer->DurationsUs("graph.search")),
            "us", tracer->DurationsUs("graph.search").size());
  sink->Set("graph.expanded_p50", Percentile(expanded, 0.5), "count",
            expanded.size());
  sink->Set("graph.expanded_p99", Percentile(expanded, 0.99), "count",
            expanded.size());
  sink->Set("graph.expanded_per_cell", Median(per_cell), "count",
            per_cell.size());
  sink->Set("habit.post_us", Median(tracer->DurationsUs("habit.post")), "us",
            tracer->DurationsUs("habit.post").size());
  sink->Set("habit.impute_self_us",
            Median(tracer->SelfTimesUs("habit.impute")), "us", n);
  sink->Set("graph.scratch_init_us",
            Median(tracer->DurationsUs("graph.scratch_init")), "us", 32);
  return Status::OK();
}

Result<std::unique_ptr<core::HabitFramework>> StagedBuild(
    const std::vector<ais::Trip>& trips, int resolution, Tracer* tracer,
    MetricSink* sink) {
  core::HabitConfig config;
  config.resolution = resolution;
  habit::db::Table table;
  Result<habit::db::Table> cells = Status::Internal("not run");
  Result<habit::db::Table> transitions = Status::Internal("not run");
  Result<graph::Digraph> digraph = Status::Internal("not run");
  graph::CompactGraph frozen;
  const int64_t root = tracer->Open("habit.build", Tracer::kNoParent, 0);
  const int64_t t_table = Timed(tracer, "habit.build_table", root, 0, [&] {
    table = core::TripsToTable(trips, resolution);
  });
  const int64_t t_cells = Timed(tracer, "habit.build_cells", root, 0, [&] {
    cells = core::ComputeCellStats(table, config);
  });
  HABIT_RETURN_NOT_OK(cells.status());
  const int64_t t_trans =
      Timed(tracer, "habit.build_transitions", root, 0, [&] {
        transitions = core::ComputeTransitionStats(table, config);
      });
  HABIT_RETURN_NOT_OK(transitions.status());
  const int64_t t_graph = Timed(tracer, "habit.build_graph", root, 0, [&] {
    digraph = core::BuildTransitionGraph(cells.value(), transitions.value(),
                                         config);
  });
  HABIT_RETURN_NOT_OK(digraph.status());
  const int64_t t_freeze = Timed(tracer, "graph.freeze", root, 0,
                                 [&] { frozen = digraph.value().Freeze(); });
  tracer->Close(root);
  sink->Set("habit.build_table_s", NsToS(t_table), "s", 1);
  sink->Set("habit.build_cells_s", NsToS(t_cells), "s", 1);
  sink->Set("habit.build_transitions_s", NsToS(t_trans), "s", 1);
  sink->Set("habit.build_graph_s", NsToS(t_graph), "s", 1);
  sink->Set("graph.freeze_s", NsToS(t_freeze), "s", 1);
  return core::HabitFramework::FromFrozen(std::move(frozen), config);
}

Status ProbeSnapshot(const core::HabitFramework& framework,
                     const std::string& path, Tracer* tracer,
                     MetricSink* sink) {
  Status saved;
  const int64_t save_ns = Timed(tracer, "graph.snapshot_save",
                                Tracer::kNoParent, 0, [&] {
                                  saved = core::SaveModelSnapshot(framework,
                                                                  path);
                                });
  HABIT_RETURN_NOT_OK(saved);
  std::vector<double> load_ms;
  for (int i = 0; i < 5; ++i) {
    Result<std::unique_ptr<api::ImputationModel>> model =
        Status::Internal("not run");
    const int64_t ns = Timed(tracer, "graph.snapshot_load", Tracer::kNoParent,
                             i, [&] {
                               model = api::MakeModel(
                                   "habit:load=" + path + ",map=1", {});
                             });
    HABIT_RETURN_NOT_OK(model.status());
    load_ms.push_back(NsToMs(ns));
  }
  sink->Set("graph.snapshot_save_s", NsToS(save_ns), "s", 1);
  sink->Set("graph.snapshot_load_ms", Median(load_ms), "ms", load_ms.size());
  return Status::OK();
}

Status ProbeBatch(const LayerInputs& in, Tracer* tracer, MetricSink* sink) {
  const std::string spec = "habit:load=" + in.snapshot + ",map=1";
  HABIT_ASSIGN_OR_RETURN(auto serial, api::MakeModel(spec, {}));
  HABIT_ASSIGN_OR_RETURN(auto parallel,
                         api::MakeModel(spec + ",threads=4", {}));
  std::vector<api::ImputeRequest> batch;
  for (size_t i = 0; batch.size() < in.batch_target && !in.gaps.empty(); ++i) {
    batch.push_back(in.gaps[i % in.gaps.size()]);
  }
  // Warm both paths (page-in of the mapped graph, thread start-up), then
  // time: the speedup compares warmed runs only.
  (void)parallel->ImputeBatch(batch, nullptr);
  const int64_t serial_ns = Timed(tracer, "api.impute_batch_t1",
                                  Tracer::kNoParent, 0,
                                  [&] { (void)serial->ImputeBatch(batch, nullptr); });
  std::vector<double> parallel_ns;
  for (int r = 0; r < 3; ++r) {
    parallel_ns.push_back(static_cast<double>(
        Timed(tracer, "api.impute_batch_t4", Tracer::kNoParent, r,
              [&] { (void)parallel->ImputeBatch(batch, nullptr); })));
  }
  sink->Set("api.batch_speedup",
            static_cast<double>(serial_ns) / Median(parallel_ns), "x",
            batch.size());

  const auto& habit_model = dynamic_cast<const api::HabitModel&>(*serial);
  const core::Imputer& imputer = habit_model.framework().imputer();
  graph::SearchScratch scratch;
  std::vector<double> overhead_us;
  const auto frames = Frames(in.gaps);
  for (size_t f = 0; f < frames.size(); ++f) {
    const auto& chunk = frames[f];
    const int64_t batch_ns =
        Timed(tracer, "api.impute_batch_chunk", Tracer::kNoParent,
              static_cast<int64_t>(f),
              [&] { (void)serial->ImputeBatch(chunk, nullptr); });
    int64_t sum_ns = 0;
    for (const api::ImputeRequest& req : chunk) {
      sum_ns += Timed(tracer, "habit.imputer_call", Tracer::kNoParent,
                      static_cast<int64_t>(f), [&] {
                        (void)imputer.Impute(req.gap_start, req.gap_end,
                                             req.t_start, req.t_end, &scratch);
                      });
    }
    overhead_us.push_back(NsToUs(batch_ns - sum_ns) /
                          static_cast<double>(chunk.size()));
  }
  sink->Set("api.batch_overhead_us", Median(overhead_us), "us",
            overhead_us.size());
  return Status::OK();
}

Status ProbeServer(const LayerInputs& in, bool wire_probe, Tracer* tracer,
                   MetricSink* sink, double* handle_us) {
  const std::string spec = "habit:load=" + in.snapshot + ",map=1";
  server::ServerOptions options;
  options.threads = 4;
  server::Server srv(options);
  HABIT_ASSIGN_OR_RETURN(const api::MethodSpec parsed_spec,
                         api::MethodSpec::Parse(spec));
  HABIT_RETURN_NOT_OK(srv.Resolve(parsed_spec).status());
  HABIT_ASSIGN_OR_RETURN(auto parallel,
                         api::MakeModel(spec + ",threads=4", {}));
  const auto frames = Frames(in.gaps);
  std::vector<std::string> binary_frames;
  for (size_t f = 0; f < frames.size(); ++f) {
    binary_frames.push_back(
        BinaryBatchFrame(spec, frames[f], static_cast<double>(f)));
  }
  std::vector<double> handle;
  std::vector<double> batch;
  for (int round = 0; round < 3; ++round) {
    for (size_t f = 0; f < frames.size(); ++f) {
      const int64_t rid = static_cast<int64_t>(f);
      const std::string_view payload =
          std::string_view(binary_frames[f]).substr(server::frame::kHeaderBytes);
      const std::string line = server::EncodeImputeBatchRequest(spec, frames[f]);
      Timed(tracer, "server.decode", Tracer::kNoParent, rid, [&] {
        (void)server::frame::DecodeRequestPayload(payload, kMaxBatch, true);
      });
      Timed(tracer, "server.parse", Tracer::kNoParent, rid,
            [&] { (void)server::ParseRequest(line, kMaxBatch); });
      std::string response;
      handle.push_back(static_cast<double>(
          Timed(tracer, "server.handle", Tracer::kNoParent, rid,
                [&] { response = srv.HandleFrame(payload); })));
      std::vector<ImputeResult> results;
      batch.push_back(static_cast<double>(
          Timed(tracer, "api.impute_batch_frame", Tracer::kNoParent, rid,
                [&] { results = parallel->ImputeBatch(frames[f], nullptr); })));
      std::string why;
      if (!CheckResultsPayload(
              std::string_view(response).substr(server::frame::kHeaderBytes),
              results, &why)) {
        return Status::Internal("in-process HandleFrame: " + why);
      }
      const server::Json id = server::Json::Number(static_cast<double>(f));
      Timed(tracer, "server.encode", Tracer::kNoParent, rid, [&] {
        if (in.json_encode) {
          (void)server::BatchResponseLine(results, id);
        } else {
          (void)server::frame::EncodeResultsFrame(results, id, true);
        }
      });
    }
  }
  *handle_us = NsToUs(static_cast<int64_t>(Median(handle)));
  sink->Set("server.decode_us", Median(tracer->DurationsUs("server.decode")),
            "us", handle.size());
  sink->Set("server.parse_us", Median(tracer->DurationsUs("server.parse")),
            "us", handle.size());
  sink->Set("server.encode_us", Median(tracer->DurationsUs("server.encode")),
            "us", handle.size());
  sink->Set("server.handle_us", *handle_us, "us", handle.size());
  sink->Set("server.handle_vs_batch", Median(handle) / Median(batch), "x",
            handle.size());
  if (!wire_probe) return Status::OK();

  sink->Set("api.cache_hit_ratio", CacheHitRatio(srv.cache().stats()),
            "fraction", handle.size());
  HABIT_RETURN_NOT_OK(srv.Listen(0));
  Status serve_status;
  std::thread serve_thread([&] { serve_status = srv.Serve(); });
  auto idle = RoundTrips(srv.bound_port(), Wire::kBinary, binary_frames, 64);
  LoadResult load;
  if (idle.ok()) {
    // Half the in-process frame capacity (one frame occupies all four
    // workers): a rate with queueing, well short of saturation.
    LoadOptions lo;
    lo.port = srv.bound_port();
    lo.frames = &binary_frames;
    for (size_t i = 0; i < binary_frames.size(); ++i) lo.order.push_back(i);
    lo.phases = {{0.5e6 / *handle_us, 1.0}};
    load = RunLoad(lo);
  }
  srv.Shutdown();
  serve_thread.join();
  HABIT_RETURN_NOT_OK(idle.status());
  HABIT_RETURN_NOT_OK(load.transport);
  const double idle_us = Median(idle.value());
  sink->Set("server.wire_us", idle_us - *handle_us, "us",
            idle.value().size());
  sink->Set("server.queue_ms", load.phases[0].p50_ms - idle_us * 1e-3, "ms",
            load.phases[0].answered);
  sink->Set("loadgen.late_p99_ms", load.phases[0].late_p99_ms, "ms",
            load.phases[0].sent);
  sink->Set("server.frames_rejected",
            StatsNumber(srv.HandleLine("{\"op\":\"stats\"}"), "",
                        "frames_rejected"),
            "count", 1);
  return Status::OK();
}

Status ProbeRouter(const LayerInputs& in, const std::string& manifest_path,
                   Tracer* tracer, MetricSink* sink) {
  std::string path = manifest_path;
  if (path.empty()) {
    router::ShardBuildOptions options;
    options.spec = "habit:r=" + std::to_string(in.resolution);
    options.out_dir = in.work_dir + "/probe_shards";
    Result<router::ShardManifest> built = Status::Internal("not run");
    const int64_t ns =
        Timed(tracer, "router.shard_build", Tracer::kNoParent, 0, [&] {
          built = router::BuildShards(in.side_trips, options);
        });
    HABIT_RETURN_NOT_OK(built.status());
    sink->Set("router.shard_build_s", NsToS(ns), "s", 1);
    path = options.out_dir + "/manifest.json";
  }
  HABIT_ASSIGN_OR_RETURN(router::ShardManifest manifest,
                         router::LoadManifest(path));
  server::ServerOptions server_options;
  server_options.threads = 4;
  server::Server local(server_options);
  auto timing = std::make_shared<TimingBackend>(
      std::make_shared<router::LocalBackend>(&local), tracer);
  router::RouterOptions router_options;
  router_options.map_snapshots = true;
  HABIT_ASSIGN_OR_RETURN(
      auto routed,
      router::Router::Make(std::move(manifest),
                           std::filesystem::path(path).parent_path().string(),
                           {timing}, router_options));
  const auto frames = Frames(in.gaps);
  std::vector<std::string> lines;
  for (const auto& frame : frames) {
    lines.push_back(server::EncodeImputeBatchRequest("", frame));
    (void)routed->HandleLine(lines.back());  // warm every shard model
  }
  size_t shard = 0, halo = 0, fallback = 0, total = 0;
  std::vector<double> fanout;
  std::vector<double> backend_us;
  for (size_t f = 0; f < lines.size(); ++f) {
    const int64_t rid = static_cast<int64_t>(f);
    const int64_t parent = tracer->Open("router.handle", Tracer::kNoParent, rid);
    timing->SetParent(parent, rid);
    const std::string response = routed->HandleLine(lines[f]);
    tracer->Close(parent);
    size_t calls = 0;
    int64_t call_ns = 0;
    for (const Tracer::Span& s : tracer->spans()) {
      if (s.parent == parent) {
        ++calls;
        call_ns += s.end_ns - s.start_ns;
      }
    }
    fanout.push_back(static_cast<double>(calls));
    backend_us.push_back(NsToUs(call_ns));
    auto parsed = server::Json::Parse(response);
    const server::Json* routes =
        parsed.ok() ? parsed.value().Find("routes") : nullptr;
    if (routes == nullptr || !routes->is_array()) {
      return Status::Internal("in-process router rejected a frame: " +
                              response.substr(0, 200));
    }
    for (const server::Json& r : routes->items()) {
      ++total;
      if (r.string_value() == "shard") ++shard;
      if (r.string_value() == "halo") ++halo;
      if (r.string_value() == "fallback") ++fallback;
    }
  }
  const double n = std::max<double>(1.0, static_cast<double>(total));
  sink->Set("router.handle_us", Median(tracer->DurationsUs("router.handle")),
            "us", lines.size());
  sink->Set("router.backend_us", Median(backend_us), "us", lines.size());
  sink->Set("router.self_us", Median(tracer->SelfTimesUs("router.handle")),
            "us", lines.size());
  sink->Set("router.fanout", Median(fanout), "count", lines.size());
  sink->Set("router.route_shard_frac", static_cast<double>(shard) / n,
            "fraction", total);
  sink->Set("router.route_halo_frac", static_cast<double>(halo) / n,
            "fraction", total);
  sink->Set("router.route_fallback_frac", static_cast<double>(fallback) / n,
            "fraction", total);
  if (!manifest_path.empty()) {
    // The routed workload's habit_route process does not expose its cache;
    // the in-process router serving the same fleet stands in for it.
    sink->Set("api.cache_hit_ratio", CacheHitRatio(local.cache().stats()),
              "fraction", lines.size());
  }
  return Status::OK();
}

Status ProbeEpoch(const LayerInputs& in, Tracer* tracer, MetricSink* sink) {
  const size_t half = in.side_trips.size() / 2;
  std::vector<ais::Trip> base(in.side_trips.begin(),
                              in.side_trips.begin() + static_cast<ptrdiff_t>(half));
  server::ServerOptions options;
  options.threads = 4;
  server::Server srv(options);
  api::EpochPipeline::Options epoch;
  epoch.spec = "habit:r=" + std::to_string(in.resolution);
  HABIT_RETURN_NOT_OK(srv.EnableIngest(epoch, std::move(base)));
  std::vector<double> ack_ms;
  for (size_t i = half; i < in.side_trips.size(); i += 2) {
    server::Request ingest;
    ingest.op = server::Request::Op::kIngest;
    for (size_t j = i; j < std::min(i + 2, in.side_trips.size()); ++j) {
      ais::Trip trip = in.side_trips[j];
      trip.trip_id += 1000000;  // fresh ids: never collide with epoch 0
      ingest.trips.push_back(std::move(trip));
    }
    const std::string bytes = server::frame::EncodeRequestFrame(ingest);
    std::string response;
    ack_ms.push_back(NsToMs(Timed(tracer, "api.ingest", Tracer::kNoParent,
                                  static_cast<int64_t>(i), [&] {
                                    response = srv.HandleFrame(
                                        std::string_view(bytes).substr(
                                            server::frame::kHeaderBytes));
                                  })));
    auto decoded = server::frame::DecodeResponsePayload(
        std::string_view(response).substr(server::frame::kHeaderBytes));
    if (!decoded.ok() ||
        decoded.value().tag != server::frame::ResponseTag::kAck) {
      return Status::Internal("in-process ingest was not acked");
    }
  }
  server::Request rollover;
  rollover.op = server::Request::Op::kRollover;
  const std::string bytes = server::frame::EncodeRequestFrame(rollover);
  Timed(tracer, "api.rollover", Tracer::kNoParent, 0, [&] {
    (void)srv.HandleFrame(
        std::string_view(bytes).substr(server::frame::kHeaderBytes));
  });
  const std::string stats = srv.HandleLine("{\"op\":\"stats\"}");
  if (StatsNumber(stats, "epoch", "epoch") < 1) {
    return Status::Internal("in-process rollover did not advance the epoch");
  }
  sink->Set("api.ingest_ack_ms", Median(ack_ms), "ms", ack_ms.size());
  sink->Set("api.epoch_build_s",
            StatsNumber(stats, "epoch", "last_build_ms") * 1e-3, "s", 1);
  return Status::OK();
}

}  // namespace perfbench
