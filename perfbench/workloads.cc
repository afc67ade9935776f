#include "workloads.h"

#include <malloc.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "ais/io.h"
#include "ais/segment.h"
#include "api/adapters.h"
#include "api/registry.h"
#include "check.h"
#include "child.h"
#include "core/rng.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "gaps.h"
#include "graph/delta.h"
#include "layers.h"
#include "loadgen.h"
#include "router/backend.h"
#include "router/manifest.h"
#include "router/router.h"
#include "router/shard_builder.h"
#include "server/frame.h"
#include "server/protocol.h"
#include "server/server.h"

namespace perfbench {

using habit::Result;
using habit::Status;

namespace {

// Set-up runs this many times in an untraced run and reports the median,
// so work moved into set-up shows without one slow start deciding it.
constexpr int kSetupRuns = 3;
constexpr size_t kFrameSize = 32;
// The synthetic worlds are fixed (the paper's datasets are fixed too);
// the run seed draws the gaps and the frames that carry them.
constexpr uint64_t kDatasetSeed = 42;
constexpr int kServedWorkers = 4;
constexpr size_t kReferenceThreads = 4;
constexpr int kConnections = 4;

// Open-loop shape of the served workloads: a fixed offered rate (where
// the latency metrics come from) and a rising rate ladder (where the
// highest rate meeting the latency limit comes from). Rates are in frames
// of 32 gaps per second, sized so the fixed rate leaves the 4 workers
// mostly idle and the ladder crosses the saturation point.
struct Shape {
  double fixed_fps;
  std::vector<double> ladder_fps;
  double limit_ms;  ///< frame p95 limit a ladder rung must meet
};
constexpr double kFixedShare = 0.6;  ///< of the window; the ladder gets the rest
const Shape kServeShape = {250, {450, 675, 1000}, 25.0};
const Shape kRouteShape = {150, {225, 340, 500}, 40.0};
// live sends single-gap frames: a frame of 32 fans out to all 4 workers,
// so beside the rebuild thread every frame needed a fifth runnable thread,
// and whenever other load shared the machine live's ten-seed p95 spread
// reached 0.4. A single-gap frame runs on one worker.
constexpr size_t kLiveFrameSize = 1;
constexpr double kLiveFps = 800;

struct Data {
  std::vector<ais::Trip> train;
  std::vector<ais::Trip> test;
};

Result<Data> PrepareData(const std::string& dataset) {
  habit::eval::ExperimentOptions options;
  options.seed = kDatasetSeed;
  HABIT_ASSIGN_OR_RETURN(habit::eval::Experiment exp,
                         habit::eval::PrepareExperiment(dataset, options));
  return Data{std::move(exp.train_trips), std::move(exp.test_trips)};
}

std::string Abs(const std::string& path) {
  return std::filesystem::absolute(path).lexically_normal().string();
}

// The frames a served workload sends. `warm` splits the gap set into
// consecutive frames covering every gap once (set-up warm-up and the
// references); `pool` holds frames of gaps drawn at random from the
// covered gaps, so timed sends carry ever-different mixes and frame
// latency percentiles describe the gap population, not the few heaviest
// of a fixed frame list.
struct FrameSet {
  std::vector<std::vector<size_t>> warm;
  std::vector<std::vector<size_t>> pool;
  size_t covered = 0;  ///< gaps the warm frames cover
};
constexpr size_t kPoolFrames = 1024;

FrameSet MakeFrameSet(size_t gaps, size_t frame_size, uint64_t seed) {
  FrameSet set;
  for (size_t b = 0; b + frame_size <= gaps; b += frame_size) {
    set.warm.emplace_back(frame_size);
    std::iota(set.warm.back().begin(), set.warm.back().end(), b);
    set.covered = b + frame_size;
  }
  habit::Rng rng(seed ^ 0x0DE5ULL);
  for (size_t f = 0; f < kPoolFrames && set.covered > 0; ++f) {
    std::vector<size_t> frame(frame_size);
    for (size_t& g : frame) {
      g = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(set.covered) - 1));
    }
    set.pool.push_back(std::move(frame));
  }
  return set;
}

template <typename T>
std::vector<T> Gather(const std::vector<T>& items,
                      const std::vector<size_t>& indexes) {
  std::vector<T> out;
  out.reserve(indexes.size());
  for (const size_t i : indexes) out.push_back(items[i]);
  return out;
}

std::string BinaryFrame(const std::string& model,
                        std::vector<api::ImputeRequest> requests) {
  server::Request request;
  request.op = server::Request::Op::kImputeBatch;
  request.model = model;
  request.requests = std::move(requests);
  return server::frame::EncodeRequestFrame(request);
}

// The router's surface: JSON lines, no model (the manifest picks it).
std::string RoutedLine(const std::vector<api::ImputeRequest>& requests) {
  return server::EncodeImputeBatchRequest("", requests) + "\n";
}

template <typename EncodeFn>
std::vector<std::string> EncodeFrames(
    const std::vector<std::vector<size_t>>& frames,
    const std::vector<api::ImputeRequest>& requests, EncodeFn&& encode) {
  std::vector<std::string> out;
  out.reserve(frames.size());
  for (const std::vector<size_t>& frame : frames) {
    out.push_back(encode(Gather(requests, frame)));
  }
  return out;
}

// The probes take frames of consecutive gaps; shuffled, those frames mix
// trips and distances like the pool frames the served workloads send.
std::vector<api::ImputeRequest> Shuffled(std::vector<api::ImputeRequest> v,
                                         uint64_t seed) {
  habit::Rng rng(seed ^ 0x5EEDULL);
  std::shuffle(v.begin(), v.end(), rng.engine());
  return v;
}

std::vector<size_t> Identity(size_t n) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

ImputeResult ToResult(Result<core::Imputation> imputation) {
  if (!imputation.ok()) return imputation.status();
  api::ImputeResponse response;
  response.path = std::move(imputation.value().path);
  response.timestamps = std::move(imputation.value().timestamps);
  response.expanded = imputation.value().expanded;
  return response;
}

// DTW of the answered gaps against their removed ground truth (the
// paper's accuracy metric). The mean carries the bound: on KIEL the
// per-gap scores jump from about 64 m to 150 m between p40 and p60, so
// the median flips by 20% between seeds while the mean moves by 4%.
struct Dtw {
  double mean = 0;
  double median = 0;
  size_t scored = 0;
};

Dtw ScoreDtw(const std::vector<ImputeResult>& results,
             const std::vector<sim::GapCase>& cases) {
  std::vector<double> scores;
  for (size_t i = 0; i < results.size() && i < cases.size(); ++i) {
    if (results[i].ok()) {
      scores.push_back(habit::eval::GapDtw(results[i].value().path, cases[i]));
    }
  }
  Dtw dtw;
  dtw.scored = scores.size();
  if (scores.empty()) return dtw;
  dtw.mean = std::accumulate(scores.begin(), scores.end(), 0.0) /
             static_cast<double>(scores.size());
  dtw.median = Median(std::move(scores));
  return dtw;
}


void Line(RunReport* report, const std::string& name, double value,
          const std::string& unit, size_t samples) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-22s %14.4f %-10s n=%zu", name.c_str(),
                value, unit.c_str(), samples);
  report->lines.push_back(buf);
}

void SetDtw(RunReport* report, const Dtw& dtw) {
  report->metrics.Set("dtw_mean_m", dtw.mean, "m", dtw.scored);
  Line(report, "dtw_mean_m", dtw.mean, "m", dtw.scored);
  Line(report, "dtw_median_m", dtw.median, "m", dtw.scored);
}

// The failure share every workload prints (the result line carries the
// same numbers as `attempted`/`failed`).
void FailedFrac(RunReport* report) {
  const Outcome& o = report->outcome;
  Line(report, "failed_frac",
       o.attempted > 0 ? static_cast<double>(o.failed) /
                             static_cast<double>(o.attempted)
                       : 0.0,
       "fraction", o.attempted);
}

// Reads a served process's `stats` over a fresh JSON connection.
Result<server::Json> FetchStats(uint16_t port) {
  std::vector<std::string> responses;
  HABIT_RETURN_NOT_OK(
      RoundTrips(port, Wire::kJson, {"{\"op\":\"stats\"}\n"}, 1, &responses)
          .status());
  return server::Json::Parse(responses.front());
}

double NumberAt(const server::Json& json, const char* object,
                const char* key) {
  const server::Json* scope = object == nullptr ? &json : json.Find(object);
  const server::Json* v = scope != nullptr ? scope->Find(key) : nullptr;
  return v != nullptr && v->is_number() ? v->number_value() : 0.0;
}

void StatsLayerMetrics(const server::Json& stats, MetricSink* sink) {
  const double hits = NumberAt(stats, "cache", "hits");
  const double gets = hits + NumberAt(stats, "cache", "misses") +
                      NumberAt(stats, "cache", "coalesced");
  sink->Set("api.cache_hit_ratio", gets > 0 ? hits / gets : 0.0, "fraction",
            static_cast<size_t>(gets));
  sink->Set("server.frames_rejected", NumberAt(stats, nullptr,
                                               "frames_rejected"),
            "count", static_cast<size_t>(NumberAt(stats, nullptr, "frames")));
}

// Tracing overhead: the same fixed-rate phase untraced, then traced. The
// callers check both loads' answers like any other timed frames.
struct OverheadProbe {
  LoadResult untraced;
  LoadResult traced;
};

Result<OverheadProbe> MeasureOverhead(LoadOptions options, double seconds,
                                      double fps, Tracer* tracer) {
  options.phases = {{fps, seconds}};
  options.control = nullptr;
  options.stop_at_first_miss = false;
  OverheadProbe probe;
  probe.untraced = RunLoad(options);
  HABIT_RETURN_NOT_OK(probe.untraced.transport);
  options.tracer = tracer;
  probe.traced = RunLoad(options);
  HABIT_RETURN_NOT_OK(probe.traced.transport);
  return probe;
}

void SetOverhead(const OverheadProbe& probe, double idle_us,
                 MetricSink* sink) {
  const PhaseResult& untraced = probe.untraced.phases.at(0);
  const PhaseResult& traced = probe.traced.phases.at(0);
  sink->Set("trace.overhead_frac",
            (traced.p50_ms - untraced.p50_ms) / untraced.p50_ms, "fraction",
            traced.answered);
  sink->Set("server.queue_ms", untraced.p50_ms - idle_us * 1e-3, "ms",
            untraced.answered);
  sink->Set("loadgen.late_p99_ms", untraced.late_p99_ms, "ms",
            untraced.sent);
}

// Highest ladder rung that met the limit, as measured completed queries
// per second; the fixed phase's rate when no rung did.
double MaxRateQps(const LoadResult& load) {
  double best = load.phases.empty()
                    ? 0.0
                    : load.phases[0].completed_qps_frames *
                          static_cast<double>(kFrameSize);
  for (size_t p = 1; p < load.phases.size(); ++p) {
    if (!load.phases[p].met_limit) break;
    best = load.phases[p].completed_qps_frames *
           static_cast<double>(kFrameSize);
  }
  return best;
}

std::vector<Phase> ServedPhases(const Shape& shape, double seconds) {
  std::vector<Phase> phases = {{shape.fixed_fps, seconds * kFixedShare}};
  const double rung_s = seconds * (1.0 - kFixedShare) /
                        static_cast<double>(shape.ladder_fps.size());
  for (const double fps : shape.ladder_fps) phases.push_back({fps, rung_s});
  return phases;
}

void ReportPhases(const LoadResult& load, const char* what,
                  RunReport* report) {
  for (size_t p = 0; p < load.phases.size(); ++p) {
    const PhaseResult& r = load.phases[p];
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "  %s phase %zu: offered %.0f frames/s, sent %zu, "
                  "answered %zu, p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, "
                  "generator late p99 %.3f ms, backlog %zu, %s",
                  what, p, r.phase.rate_fps, r.sent, r.answered, r.p50_ms,
                  r.p95_ms, r.p99_ms, r.late_p99_ms, r.backlog_at_end,
                  r.met_limit ? "met limit" : "missed limit");
    report->lines.push_back(buf);
    std::string slices = std::string("  ") + what + " phase " +
                         std::to_string(p) + " p95 by slice (ms):";
    for (const double ms : r.slice_p95_ms) {
      std::snprintf(buf, sizeof(buf), " %.3f", ms);
      slices += buf;
    }
    report->lines.push_back(slices);
  }
}

// ------------------------------------------------------------------ bulk

Status RunBulk(const RunConfig& cfg, RunReport* rep) {
  const GapSetOptions gap_options{{15 * 60, 30 * 60, 60 * 60, 120 * 60,
                                   180 * 60},
                                  30,
                                  5.0};
  const std::string snapshot = Abs(cfg.work_dir + "/bulk.snap");
  Data data;
  GapSet gaps;
  std::vector<api::ImputeRequest> requests;
  std::unique_ptr<api::ImputationModel> model;
  std::unique_ptr<core::HabitFramework> staged;
  std::vector<double> setup_s;
  for (int i = 0; i < (cfg.trace ? 1 : kSetupRuns); ++i) {
    model.reset();
    const int64_t t0 = NowNs();
    HABIT_ASSIGN_OR_RETURN(data, PrepareData("KIEL"));
    int64_t excluded = 0;
    if (i == 0) {
      const int64_t g0 = NowNs();
      gaps = MakeGapSet(data.test, gap_options, cfg.seed);
      requests = GapRequests(gaps);
      excluded = NowNs() - g0;
    }
    if (cfg.trace) {
      HABIT_ASSIGN_OR_RETURN(
          staged, StagedBuild(data.train, 10, &rep->tracer, &rep->metrics));
      HABIT_RETURN_NOT_OK(
          ProbeSnapshot(*staged, snapshot, &rep->tracer, &rep->metrics));
      HABIT_ASSIGN_OR_RETURN(
          model, api::MakeModel("habit:load=" + snapshot + ",threads=4", {}));
    } else {
      HABIT_ASSIGN_OR_RETURN(
          model, api::MakeModel("habit:r=10,threads=4", data.train));
    }
    (void)model->ImputeBatch(requests, nullptr);  // warm-up pass
    setup_s.push_back(NsToS(NowNs() - t0 - excluded));
  }
  rep->lines.push_back("  gap set: " + DescribeGapSet(gaps));
  if (requests.empty()) return Status::Internal("empty gap set");

  // Reference: plain Imputer::Impute calls, one scratch per thread — no
  // batch ordering, partitioning or response conversion. Split across
  // threads by stride only to keep the check cheap.
  const core::HabitFramework& fw =
      dynamic_cast<const api::HabitModel&>(*model).framework();
  std::vector<ImputeResult> reference(requests.size(),
                                      Status::Internal("not computed"));
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kReferenceThreads; ++t) {
      threads.emplace_back([&, t] {
        graph::SearchScratch scratch;
        for (size_t i = t; i < requests.size(); i += kReferenceThreads) {
          const api::ImputeRequest& r = requests[i];
          reference[i] = ToResult(fw.imputer().Impute(
              r.gap_start, r.gap_end, r.t_start, r.t_end, &scratch));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  const double n = static_cast<double>(requests.size());
  const auto run_passes = [&](double seconds, bool traced,
                              std::vector<double>* qps,
                              std::vector<double>* query_ms) {
    const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    for (int pass = 0; pass < 3 || NowNs() < end; ++pass) {
      std::vector<double> query_seconds;
      const int64_t start = NowNs();
      const std::vector<ImputeResult> results =
          model->ImputeBatch(requests, &query_seconds);
      const int64_t stop = NowNs();
      if (traced) {
        rep->tracer.Record("api.impute_batch", start, stop, Tracer::kNoParent,
                           pass);
      }
      qps->push_back(n / NsToS(stop - start));
      for (const double q : query_seconds) query_ms->push_back(q * 1e3);
      rep->outcome.attempted += requests.size();
      std::string why;
      for (size_t i = 0; i < results.size(); ++i) {
        if (!SameResult(results[i], reference[i], &why)) {
          rep->outcome.Fail("bulk gap " + std::to_string(i) + ": " + why);
        }
      }
    }
  };

  if (cfg.trace) {
    std::vector<double> qps_a, ms_a, qps_b, ms_b;
    run_passes(cfg.seconds / 2, false, &qps_a, &ms_a);
    run_passes(cfg.seconds / 2, true, &qps_b, &ms_b);
    rep->metrics.Set("trace.overhead_frac",
                     (Median(ms_b) - Median(ms_a)) / Median(ms_a), "fraction",
                     ms_b.size());
    LayerInputs in;
    in.framework = staged.get();
    in.snapshot = snapshot;
    in.gaps = Shuffled(requests, cfg.seed);
    in.side_trips.assign(data.train.begin(),
                         data.train.begin() +
                             static_cast<ptrdiff_t>(data.train.size() / 4));
    in.resolution = 10;
    in.work_dir = cfg.work_dir;
    in.batch_target = 1024;
    double handle_us = 0;
    HABIT_RETURN_NOT_OK(ProbeImputer(in, &rep->tracer, &rep->metrics));
    HABIT_RETURN_NOT_OK(ProbeBatch(in, &rep->tracer, &rep->metrics));
    HABIT_RETURN_NOT_OK(
        ProbeServer(in, true, &rep->tracer, &rep->metrics, &handle_us));
    HABIT_RETURN_NOT_OK(ProbeRouter(in, "", &rep->tracer, &rep->metrics));
    HABIT_RETURN_NOT_OK(ProbeEpoch(in, &rep->tracer, &rep->metrics));
    return Status::OK();
  }

  // Hand freed set-up memory back first, so the peak covers the timed
  // passes on top of what the model and its inputs hold.
  malloc_trim(0);
  ResetPeakRss();
  std::vector<double> qps, query_ms;
  run_passes(cfg.seconds, false, &qps, &query_ms);
  const double peak = PeakRssMb("self");
  const Dtw dtw = ScoreDtw(reference, gaps.cases);
  rep->metrics.Set("setup_s", Median(setup_s), "s", setup_s.size());
  rep->metrics.Set("latency_p50_ms", Percentile(query_ms, 0.5), "ms",
         query_ms.size());
  rep->metrics.Set("latency_p95_ms", Percentile(query_ms, 0.95), "ms",
         query_ms.size());
  rep->metrics.Set("throughput_qps", Median(qps), "queries/s", qps.size());
  rep->metrics.Set("peak_rss_mb", peak, "MB", 1);
  SetDtw(rep, dtw);
  Line(rep, "impute_qps", Median(qps), "queries/s", qps.size());
  Line(rep, "query_p50_ms", Percentile(query_ms, 0.5), "ms", query_ms.size());
  Line(rep, "query_p95_ms", Percentile(query_ms, 0.95), "ms", query_ms.size());
  Line(rep, "query_p99_ms", Percentile(query_ms, 0.99), "ms", query_ms.size());
  Line(rep, "peak_rss_mb", peak, "MB", 1);
  Line(rep, "setup_s", Median(setup_s), "s", setup_s.size());
  FailedFrac(rep);
  return Status::OK();
}

// -------------------------------------------------------- serve / route

// Records the model and requests of every sub-frame the router sends, so
// each routed request can be traced to the snapshot that answered it.
class RecordingBackend : public router::ShardBackend {
 public:
  explicit RecordingBackend(server::Server* server) : local_(server) {}
  Result<std::string> Call(const std::string& line) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      lines_.push_back(line);
    }
    return local_.Call(line);
  }
  std::string Describe() const override { return "recording"; }
  std::vector<std::string> TakeLines() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(lines_);
  }

 private:
  router::LocalBackend local_;
  std::mutex mu_;
  std::vector<std::string> lines_;
};

std::string RequestKey(const api::ImputeRequest& r) {
  std::string key(48, '\0');
  std::memcpy(key.data(), &r.gap_start.lat, 8);
  std::memcpy(key.data() + 8, &r.gap_start.lng, 8);
  std::memcpy(key.data() + 16, &r.gap_end.lat, 8);
  std::memcpy(key.data() + 24, &r.gap_end.lng, 8);
  std::memcpy(key.data() + 32, &r.t_start, 8);
  std::memcpy(key.data() + 40, &r.t_end, 8);
  return key;
}

// Expected answers for routed requests, per gap: the in-process
// ImputeBatch answer of the snapshot an in-process router sent the gap to,
// rendered through the protocol encoder, and whether that snapshot is the
// fallback. Which snapshot answers is a per-request decision, so a gap
// gets the same answer in any frame; the route LABEL is not (a shard's
// group carries the label of its first request), so the check only asks
// "fallback" of fallback answers and "shard" or "halo" of the others.
struct RoutedReference {
  std::vector<std::string> results;
  std::vector<std::string> routes;  ///< "fallback" or "shard"
  std::vector<ImputeResult> flat;   ///< for DTW
};

Result<RoutedReference> BuildRoutedReference(
    const std::string& manifest_path,
    const std::vector<api::ImputeRequest>& requests, const FrameSet& frames) {
  HABIT_ASSIGN_OR_RETURN(router::ShardManifest manifest,
                         router::LoadManifest(manifest_path));
  server::ServerOptions options;
  options.threads = kServedWorkers;
  server::Server local(options);
  auto recorder = std::make_shared<RecordingBackend>(&local);
  router::RouterOptions router_options;
  router_options.map_snapshots = true;
  HABIT_ASSIGN_OR_RETURN(
      auto routed,
      router::Router::Make(
          std::move(manifest),
          std::filesystem::path(manifest_path).parent_path().string(),
          {recorder}, router_options));
  RoutedReference ref;
  ref.results.resize(frames.covered);
  ref.routes.resize(frames.covered);
  ref.flat.assign(frames.covered, Status::Internal("unrouted"));
  std::map<std::string, std::unique_ptr<api::ImputationModel>> models;
  for (const std::vector<size_t>& frame : frames.warm) {
    const std::vector<api::ImputeRequest> batch = Gather(requests, frame);
    auto parsed = server::Json::Parse(
        routed->HandleLine(server::EncodeImputeBatchRequest("", batch)));
    const server::Json* routes =
        parsed.ok() ? parsed.value().Find("routes") : nullptr;
    if (routes == nullptr) {
      return Status::Internal("in-process router rejected a frame");
    }
    std::map<std::string, std::string> model_of;
    for (const std::string& sub : recorder->TakeLines()) {
      HABIT_ASSIGN_OR_RETURN(server::Request request,
                             server::ParseRequest(sub, 1u << 20));
      for (const api::ImputeRequest& r : request.requests) {
        model_of[RequestKey(r)] = request.model;
      }
    }
    std::map<std::string, std::vector<size_t>> by_model;
    for (size_t i = 0; i < batch.size(); ++i) {
      by_model[model_of[RequestKey(batch[i])]].push_back(frame[i]);
    }
    for (const auto& [spec, gaps] : by_model) {
      if (spec.empty()) return Status::Internal("request was never routed");
      if (!models.contains(spec)) {
        HABIT_ASSIGN_OR_RETURN(models[spec], api::MakeModel(spec, {}));
      }
      std::vector<ImputeResult> results =
          models[spec]->ImputeBatch(Gather(requests, gaps), nullptr);
      for (size_t k = 0; k < gaps.size(); ++k) {
        ref.results[gaps[k]] = server::ImputeResultToJson(results[k]).Dump();
        ref.routes[gaps[k]] =
            spec == routed->fallback_spec() ? "fallback" : "shard";
        ref.flat[gaps[k]] = std::move(results[k]);
      }
    }
  }
  return ref;
}

Status RunServed(const RunConfig& cfg, RunReport* rep, bool routed) {
  // Routed gaps add a share of 3-hour gaps, whose endpoints lie too far
  // apart for one shard's halo: the router's fallback route.
  const GapSetOptions gap_options =
      routed ? GapSetOptions{{15 * 60, 30 * 60, 180 * 60}, 12, 0.0}
             : GapSetOptions{{15 * 60, 30 * 60}, 16, 0.0};
  const Shape& shape = routed ? kRouteShape : kServeShape;
  const Wire wire = routed ? Wire::kJson : Wire::kBinary;
  const std::string snapshot = Abs(cfg.work_dir + "/sar.snap");
  const std::string shard_dir = Abs(cfg.work_dir + "/shards");
  const std::string manifest = shard_dir + "/manifest.json";
  const std::string spec = "habit:load=" + snapshot + ",map=1";
  Data data;
  GapSet gaps;
  std::vector<api::ImputeRequest> requests;
  FrameSet frames;
  std::vector<std::string> warm_wire;
  std::vector<std::string> pool_wire;
  std::unique_ptr<Child> child;
  std::unique_ptr<core::HabitFramework> staged;
  uint16_t port = 0;
  std::vector<double> setup_s;
  for (int i = 0; i < (cfg.trace ? 1 : kSetupRuns); ++i) {
    if (child != nullptr) (void)child->Stop();
    child.reset();
    const int64_t t0 = NowNs();
    HABIT_ASSIGN_OR_RETURN(data, PrepareData("SAR"));
    int64_t excluded = 0;
    if (i == 0) {
      const int64_t g0 = NowNs();
      gaps = MakeGapSet(data.test, gap_options, cfg.seed);
      requests = GapRequests(gaps);
      frames = MakeFrameSet(requests.size(), kFrameSize, cfg.seed);
      const auto encode = [&](std::vector<api::ImputeRequest> batch) {
        return routed ? RoutedLine(batch) : BinaryFrame(spec, std::move(batch));
      };
      warm_wire = EncodeFrames(frames.warm, requests, encode);
      pool_wire = EncodeFrames(frames.pool, requests, encode);
      excluded = NowNs() - g0;
    }
    const int64_t b0 = NowNs();
    std::vector<std::string> argv;
    if (routed) {
      router::ShardBuildOptions options;
      options.spec = "habit:r=9";
      options.out_dir = shard_dir;
      HABIT_RETURN_NOT_OK(router::BuildShards(data.train, options).status());
      if (cfg.trace) {
        rep->metrics.Set("router.shard_build_s", NsToS(NowNs() - b0), "s", 1);
      }
      argv = {cfg.bin_dir + "/habit_route", "--manifest", manifest, "--local",
              "--map", "--port", "0", "--threads",
              std::to_string(kServedWorkers)};
    } else {
      if (cfg.trace) {
        HABIT_ASSIGN_OR_RETURN(
            staged, StagedBuild(data.train, 9, &rep->tracer, &rep->metrics));
        HABIT_RETURN_NOT_OK(
            ProbeSnapshot(*staged, snapshot, &rep->tracer, &rep->metrics));
      } else {
        HABIT_RETURN_NOT_OK(
            api::MakeModel("habit:r=9,save=" + snapshot, data.train).status());
      }
      argv = {cfg.bin_dir + "/habit_serve", "--port", "0", "--threads",
              std::to_string(kServedWorkers), "--preload", spec};
    }
    HABIT_ASSIGN_OR_RETURN(child,
                           Child::Spawn(argv, cfg.work_dir + "/server.log"));
    HABIT_ASSIGN_OR_RETURN(port, child->WaitListening(60));
    HABIT_RETURN_NOT_OK(
        RoundTrips(port, wire, warm_wire, warm_wire.size()).status());
    setup_s.push_back(NsToS(NowNs() - t0 - excluded));
  }
  rep->lines.push_back("  gap set: " + DescribeGapSet(gaps) +
                       " pool_frames=" + std::to_string(frames.pool.size()));
  if (frames.pool.empty()) return Status::Internal("empty gap set");

  // References, per gap, built before the timed window (outside set-up
  // timing): a frame's expected answer is its gaps' answers in order.
  std::vector<ImputeResult> flat;
  RoutedReference routed_ref;
  if (routed) {
    HABIT_ASSIGN_OR_RETURN(routed_ref,
                           BuildRoutedReference(manifest, requests, frames));
    flat = std::move(routed_ref.flat);
  } else {
    HABIT_ASSIGN_OR_RETURN(auto ref_model, api::MakeModel(spec, {}));
    flat = ref_model->ImputeBatch(
        std::span(requests).first(frames.covered), nullptr);
  }
  const auto check = [&](const LoadResult& load) {
    for (const SentFrame& f : load.frames) {
      rep->outcome.attempted += kFrameSize;
      std::string why;
      const std::vector<size_t>& gaps_sent = frames.pool[f.frame];
      if (f.done_ns == 0) {
        why = "no answer";
      } else if (routed ? CheckRoutedLine(f.response,
                                          Gather(routed_ref.results, gaps_sent),
                                          Gather(routed_ref.routes, gaps_sent),
                                          &why)
                        : CheckResultsPayload(f.response, Gather(flat, gaps_sent),
                                              &why)) {
        continue;
      }
      // A frame without a correct, complete answer fails all its queries.
      rep->outcome.failed += kFrameSize - 1;
      rep->outcome.Fail("frame " + std::to_string(f.frame) + ": " + why);
    }
  };

  LoadOptions lo;
  lo.port = port;
  lo.wire = wire;
  lo.connections = kConnections;
  lo.frames = &pool_wire;
  lo.order = Identity(pool_wire.size());
  lo.limit_ms = shape.limit_ms;

  if (cfg.trace) {
    HABIT_ASSIGN_OR_RETURN(const std::vector<double> idle,
                           RoundTrips(port, wire, pool_wire, 64));
    HABIT_ASSIGN_OR_RETURN(
        const OverheadProbe overhead,
        MeasureOverhead(lo, cfg.seconds / 2, shape.fixed_fps, &rep->tracer));
    SetOverhead(overhead, Median(idle), &rep->metrics);
    check(overhead.untraced);
    check(overhead.traced);
    HABIT_ASSIGN_OR_RETURN(const server::Json stats, FetchStats(port));
    StatsLayerMetrics(stats, &rep->metrics);
    HABIT_RETURN_NOT_OK(child->Stop());
    child.reset();

    LayerInputs in;
    in.gaps = Shuffled(requests, cfg.seed);
    in.side_trips = data.train;
    in.resolution = 9;
    in.work_dir = cfg.work_dir;
    in.batch_target = 8192;
    std::unique_ptr<api::ImputationModel> fallback;
    if (routed) {
      HABIT_ASSIGN_OR_RETURN(
          staged, StagedBuild(data.train, 9, &rep->tracer, &rep->metrics));
      HABIT_RETURN_NOT_OK(ProbeSnapshot(*staged, snapshot, &rep->tracer,
                                        &rep->metrics));
      in.snapshot = shard_dir + "/fallback.bin";
      HABIT_ASSIGN_OR_RETURN(fallback,
                             api::MakeModel("habit:load=" + in.snapshot, {}));
      in.framework = &dynamic_cast<const api::HabitModel&>(*fallback).framework();
      in.json_encode = true;
    } else {
      in.snapshot = snapshot;
      in.framework = staged.get();
    }
    double handle_us = 0;
    HABIT_RETURN_NOT_OK(ProbeImputer(in, &rep->tracer, &rep->metrics));
    HABIT_RETURN_NOT_OK(ProbeBatch(in, &rep->tracer, &rep->metrics));
    HABIT_RETURN_NOT_OK(
        ProbeServer(in, false, &rep->tracer, &rep->metrics, &handle_us));
    HABIT_RETURN_NOT_OK(ProbeRouter(in, routed ? manifest : "", &rep->tracer,
                                    &rep->metrics));
    HABIT_RETURN_NOT_OK(ProbeEpoch(in, &rep->tracer, &rep->metrics));
    // The near-idle round trip less the in-process handling of the same
    // frame: Server::HandleFrame for habit_serve, Router::HandleLine for
    // habit_route.
    const double inproc_us =
        routed ? rep->metrics.Find("router.handle_us")->value : handle_us;
    rep->metrics.Set("server.wire_us", Median(idle) - inproc_us, "us",
                     idle.size());
    return Status::OK();
  }

  lo.phases = ServedPhases(shape, cfg.seconds);
  lo.stop_at_first_miss = true;
  const LoadResult load = RunLoad(lo);
  HABIT_RETURN_NOT_OK(load.transport);
  const double peak = child->PeakRssMb();
  HABIT_RETURN_NOT_OK(child->Stop());
  child.reset();
  check(load);
  ReportPhases(load, routed ? "route" : "serve", rep);
  const PhaseResult& fixed = load.phases.at(0);
  const double max_rate = MaxRateQps(load);
  std::vector<sim::GapCase> cases(gaps.cases.begin(),
                                  gaps.cases.begin() +
                                      static_cast<ptrdiff_t>(flat.size()));
  const Dtw dtw = ScoreDtw(flat, cases);
  rep->metrics.Set("setup_s", Median(setup_s), "s", setup_s.size());
  rep->metrics.Set("latency_p50_ms", fixed.p50_ms, "ms", fixed.answered);
  rep->metrics.Set("latency_p95_ms", fixed.p95_ms, "ms", fixed.answered);
  rep->metrics.Set("throughput_qps", max_rate, "queries/s", load.phases.size() - 1);
  rep->metrics.Set("peak_rss_mb", peak, "MB", 1);
  SetDtw(rep, dtw);
  Line(rep, "frame_p50_ms", fixed.p50_ms, "ms", fixed.answered);
  Line(rep, "frame_p95_ms", fixed.p95_ms, "ms", fixed.answered);
  Line(rep, "frame_p99_ms", fixed.p99_ms, "ms", fixed.answered);
  Line(rep, "max_rate_qps", max_rate, "queries/s", load.phases.size() - 1);
  Line(rep, "peak_rss_mb", peak, "MB", 1);
  Line(rep, "setup_s", Median(setup_s), "s", setup_s.size());
  FailedFrac(rep);
  return Status::OK();
}

// ------------------------------------------------------------------ live

constexpr size_t kLiveCycles = kSlices;
constexpr int64_t kIngestIdOffset = 1000000;

ControlStep Step(const server::Request& request) {
  ControlStep step;
  step.bytes = server::frame::EncodeRequestFrame(request);
  return step;
}

Status RunLive(const RunConfig& cfg, RunReport* rep) {
  const GapSetOptions gap_options{{15 * 60, 30 * 60, 60 * 60}, 30, 0.0};
  const std::string base_csv = Abs(cfg.work_dir + "/live_base.csv");
  const std::string spec = "habit:r=9";
  Data data;
  GapSet gaps;
  std::vector<api::ImputeRequest> requests;
  FrameSet frames;
  std::vector<std::string> warm_wire;
  std::vector<std::string> pool_wire;
  std::vector<ais::Trip> ingest;
  std::unique_ptr<Child> child;
  uint16_t port = 0;
  std::vector<double> setup_s;
  for (int i = 0; i < (cfg.trace ? 1 : kSetupRuns); ++i) {
    if (child != nullptr) (void)child->Stop();
    child.reset();
    const int64_t t0 = NowNs();
    HABIT_ASSIGN_OR_RETURN(data, PrepareData("KIEL"));
    int64_t excluded = 0;
    if (i == 0) {
      const int64_t g0 = NowNs();
      gaps = MakeGapSet(data.test, gap_options, cfg.seed);
      requests = GapRequests(gaps);
      frames = MakeFrameSet(requests.size(), kLiveFrameSize, cfg.seed);
      const auto encode = [&](std::vector<api::ImputeRequest> batch) {
        return BinaryFrame(spec, std::move(batch));
      };
      warm_wire = EncodeFrames(frames.warm, requests, encode);
      pool_wire = EncodeFrames(frames.pool, requests, encode);
      excluded = NowNs() - g0;
    }
    // Epoch 0: the first three quarters of the training trips, as the AIS
    // feed the server cleans and segments itself; the rest arrives live.
    // With most trips in the base, the rebuilds stay close in length, so
    // each slice of the window sees about the same contention.
    const size_t base_n = data.train.size() * 3 / 4;
    std::vector<ais::AisRecord> base_records;
    for (size_t t = 0; t < base_n; ++t) {
      base_records.insert(base_records.end(), data.train[t].points.begin(),
                          data.train[t].points.end());
    }
    HABIT_RETURN_NOT_OK(ais::WriteAisCsv(base_records, base_csv));
    ingest.assign(data.train.begin() + static_cast<ptrdiff_t>(base_n),
                  data.train.end());
    for (ais::Trip& trip : ingest) trip.trip_id += kIngestIdOffset;
    if (ingest.size() < kLiveCycles) {
      return Status::Internal("too few trips left to ingest");
    }
    HABIT_ASSIGN_OR_RETURN(
        child, Child::Spawn({cfg.bin_dir + "/habit_serve", "--port", "0",
                             "--threads", std::to_string(kServedWorkers),
                             "--ingest-spec", spec, "--ingest-base", base_csv},
                            cfg.work_dir + "/server.log"));
    HABIT_ASSIGN_OR_RETURN(port, child->WaitListening(120));
    HABIT_RETURN_NOT_OK(
        RoundTrips(port, Wire::kBinary, warm_wire, warm_wire.size())
            .status());
    setup_s.push_back(NsToS(NowNs() - t0 - excluded));
  }
  rep->lines.push_back("  gap set: " + DescribeGapSet(gaps) +
                       " pool_frames=" + std::to_string(frames.pool.size()) +
                       " ingest_trips=" + std::to_string(ingest.size()) +
                       " cycles=" + std::to_string(kLiveCycles));
  if (frames.pool.empty()) return Status::Internal("empty gap set");

  // The control script: per cycle two ingest frames, a rollover and a
  // stats read (the epoch object's last_build_ms). Cycle c opens at the
  // start of the window's c-th slice, so every slice the latency
  // percentiles are taken over holds one rebuild.
  const double window_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  std::vector<ControlStep> script;
  std::vector<size_t> first_ingest, rollover_step, stats_step;
  for (size_t c = 0; c < kLiveCycles; ++c) {
    const size_t begin = ingest.size() * c / kLiveCycles;
    const size_t end = ingest.size() * (c + 1) / kLiveCycles;
    const size_t mid = (begin + end) / 2;
    first_ingest.push_back(script.size());
    for (const auto& [b, e] : {std::pair{begin, mid}, std::pair{mid, end}}) {
      if (b == e) continue;
      server::Request request;
      request.op = server::Request::Op::kIngest;
      request.trips.assign(ingest.begin() + static_cast<ptrdiff_t>(b),
                           ingest.begin() + static_cast<ptrdiff_t>(e));
      script.push_back(Step(request));
    }
    script[first_ingest.back()].not_before_s =
        window_s * static_cast<double>(c) / static_cast<double>(kLiveCycles);
    server::Request rollover;
    rollover.op = server::Request::Op::kRollover;
    rollover_step.push_back(script.size());
    script.push_back(Step(rollover));
    server::Request stats;
    stats.op = server::Request::Op::kStats;
    stats_step.push_back(script.size());
    script.push_back(Step(stats));
  }

  LoadOptions lo;
  lo.port = port;
  lo.wire = Wire::kBinary;
  lo.connections = kConnections - 1;  // the fourth carries the script
  lo.frames = &pool_wire;
  lo.order = Identity(pool_wire.size());
  lo.control = &script;
  std::vector<double> idle;
  OverheadProbe overhead;
  if (cfg.trace) {
    HABIT_ASSIGN_OR_RETURN(idle,
                           RoundTrips(port, Wire::kBinary, pool_wire, 64));
    HABIT_ASSIGN_OR_RETURN(overhead,
                           MeasureOverhead(lo, 1.5, kLiveFps, &rep->tracer));
    lo.tracer = &rep->tracer;
  }
  lo.phases = {{kLiveFps, window_s}};
  const LoadResult load = RunLoad(lo);
  HABIT_RETURN_NOT_OK(load.transport);
  const double peak = child->PeakRssMb();
  Result<server::Json> final_stats = FetchStats(port);
  HABIT_RETURN_NOT_OK(child->Stop());
  child.reset();
  HABIT_RETURN_NOT_OK(final_stats.status());

  // Reference: a cold MakeModel on the cumulative trips — epoch 0 exactly
  // as the server read it from the feed, then every ingested trip in
  // ingest order.
  HABIT_ASSIGN_OR_RETURN(const std::vector<ais::AisRecord> records,
                         ais::ReadAisCsv(base_csv));
  const std::vector<ais::Trip> cumulative = habit::graph::MergeEpochTrips(
      ais::PreprocessAndSegment(records), ingest);
  HABIT_ASSIGN_OR_RETURN(auto ref_model, api::MakeModel(spec, cumulative));
  const std::vector<ImputeResult> flat = ref_model->ImputeBatch(
      std::span(requests).first(frames.covered), nullptr);

  // Control answers: every ingest acked with its trip count, every
  // rollover advancing the epoch by one.
  std::vector<double> fresh_s, build_s, ack_ms;
  for (size_t s = 0; s < script.size(); ++s) {
    const ControlStep& step = script[s];
    rep->outcome.attempted += 1;
    auto decoded = server::frame::DecodeResponsePayload(step.response);
    if (step.done_ns == 0 || !decoded.ok()) {
      rep->outcome.Fail("control step " + std::to_string(s) + " unanswered");
      continue;
    }
    const auto& response = decoded.value();
    const auto rollover = std::find(rollover_step.begin(), rollover_step.end(), s);
    const auto stats = std::find(stats_step.begin(), stats_step.end(), s);
    if (rollover != rollover_step.end()) {
      const size_t cycle = static_cast<size_t>(rollover - rollover_step.begin());
      if (response.tag != server::frame::ResponseTag::kAck ||
          response.epoch != cycle + 1) {
        rep->outcome.Fail("rollover " + std::to_string(cycle) +
                          " did not advance the epoch");
      }
      fresh_s.push_back(NsToS(step.done_ns - script[first_ingest[cycle]].sent_ns));
    } else if (stats != stats_step.end()) {
      auto json = server::Json::Parse(response.json);
      if (response.tag != server::frame::ResponseTag::kJson || !json.ok()) {
        rep->outcome.Fail("stats step unreadable");
        continue;
      }
      build_s.push_back(NumberAt(json.value(), "epoch", "last_build_ms") * 1e-3);
    } else {
      if (response.tag != server::frame::ResponseTag::kAck ||
          response.accepted == 0) {
        rep->outcome.Fail("ingest frame was not acked: " +
                          response.error.ToString());
      }
      ack_ms.push_back(NsToMs(step.done_ns - step.sent_ns));
    }
  }
  // Impute answers: bit-exact against the cumulative reference once the
  // last rollover is acked; before that the epoch is moving, so they must
  // be complete, well-formed answers.
  const int64_t settled = script[rollover_step.back()].done_ns;
  size_t exact = 0;
  const auto check = [&](const LoadResult& checked) {
    for (const SentFrame& f : checked.frames) {
      rep->outcome.attempted += kLiveFrameSize;
      std::string why = "no answer";
      bool ok = false;
      if (f.done_ns != 0 && settled != 0 && f.sent_ns >= settled) {
        ++exact;
        ok = CheckResultsPayload(
            f.response, Gather(flat, frames.pool[f.frame]), &why);
      } else if (f.done_ns != 0) {
        ok = CheckResultsShape(f.response, kLiveFrameSize, &why);
      }
      if (!ok) {
        rep->outcome.failed += kLiveFrameSize - 1;
        rep->outcome.Fail("live frame " + std::to_string(f.frame) + ": " +
                          why);
      }
    }
  };
  check(load);
  if (cfg.trace) {
    check(overhead.untraced);
    check(overhead.traced);
  }
  ReportPhases(load, "live", rep);
  if (!load.frames.empty()) {
    std::string timeline = "  cycles (s after the window opened):";
    const int64_t opened = load.frames.front().due_ns;
    for (size_t c = 0; c < rollover_step.size(); ++c) {
      char buf[80];
      std::snprintf(buf, sizeof(buf), " ingest %.2f ack %.2f;",
                    NsToS(script[first_ingest[c]].sent_ns - opened),
                    NsToS(script[rollover_step[c]].done_ns - opened));
      timeline += buf;
    }
    rep->lines.push_back(timeline);
  }
  rep->lines.push_back("  live frames checked bit-exact after the last "
                       "rollover: " + std::to_string(exact));

  if (cfg.trace) {
    SetOverhead(overhead, Median(idle), &rep->metrics);
    StatsLayerMetrics(final_stats.value(), &rep->metrics);
    rep->metrics.Set("api.epoch_build_s", Median(build_s), "s",
                     build_s.size());
    rep->metrics.Set("api.ingest_ack_ms", Median(ack_ms), "ms", ack_ms.size());
    const std::string snapshot = Abs(cfg.work_dir + "/live.snap");
    HABIT_ASSIGN_OR_RETURN(
        auto staged, StagedBuild(cumulative, 9, &rep->tracer, &rep->metrics));
    HABIT_RETURN_NOT_OK(
        ProbeSnapshot(*staged, snapshot, &rep->tracer, &rep->metrics));
    LayerInputs in;
    in.framework = staged.get();
    in.snapshot = snapshot;
    in.gaps = Shuffled(requests, cfg.seed);
    in.side_trips.assign(cumulative.begin(),
                         cumulative.begin() +
                             static_cast<ptrdiff_t>(cumulative.size() * 2 / 5));
    in.resolution = 9;
    in.work_dir = cfg.work_dir;
    in.batch_target = 4096;
    double handle_us = 0;
    HABIT_RETURN_NOT_OK(ProbeImputer(in, &rep->tracer, &rep->metrics));
    HABIT_RETURN_NOT_OK(ProbeBatch(in, &rep->tracer, &rep->metrics));
    HABIT_RETURN_NOT_OK(
        ProbeServer(in, false, &rep->tracer, &rep->metrics, &handle_us));
    HABIT_RETURN_NOT_OK(ProbeRouter(in, "", &rep->tracer, &rep->metrics));
    rep->metrics.Set("server.wire_us", Median(idle) - handle_us, "us",
                     idle.size());
    return Status::OK();
  }

  const PhaseResult& phase = load.phases.at(0);
  const double qps =
      phase.completed_qps_frames * static_cast<double>(kLiveFrameSize);
  std::vector<sim::GapCase> cases(gaps.cases.begin(),
                                  gaps.cases.begin() +
                                      static_cast<ptrdiff_t>(flat.size()));
  const Dtw dtw = ScoreDtw(flat, cases);
  rep->metrics.Set("setup_s", Median(setup_s), "s", setup_s.size());
  rep->metrics.Set("latency_p50_ms", phase.p50_ms, "ms", phase.answered);
  rep->metrics.Set("latency_p95_ms", phase.p95_ms, "ms", phase.answered);
  rep->metrics.Set("throughput_qps", qps, "queries/s", phase.answered);
  rep->metrics.Set("peak_rss_mb", peak, "MB", 1);
  SetDtw(rep, dtw);
  Line(rep, "frame_p50_ms", phase.p50_ms, "ms", phase.answered);
  Line(rep, "frame_p95_ms", phase.p95_ms, "ms", phase.answered);
  Line(rep, "frame_p99_ms", phase.p99_ms, "ms", phase.answered);
  Line(rep, "freshness_s", Median(fresh_s), "s", fresh_s.size());
  Line(rep, "epoch_build_s", Median(build_s), "s", build_s.size());
  Line(rep, "served_qps", qps, "queries/s", phase.answered);
  Line(rep, "peak_rss_mb", peak, "MB", 1);
  Line(rep, "setup_s", Median(setup_s), "s", setup_s.size());
  FailedFrac(rep);
  return Status::OK();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"bulk", "serve", "live",
                                                  "route"};
  return kNames;
}

Status RunWorkload(const RunConfig& config, RunReport* report) {
  if (config.workload == "bulk") return RunBulk(config, report);
  if (config.workload == "serve") return RunServed(config, report, false);
  if (config.workload == "route") return RunServed(config, report, true);
  if (config.workload == "live") return RunLive(config, report);
  return Status::InvalidArgument("unknown workload '" + config.workload + "'");
}

}  // namespace perfbench
