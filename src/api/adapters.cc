#include "api/adapters.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "baselines/sli.h"
#include "core/stopwatch.h"
#include "geo/latlng.h"
#include "graph/compact_graph.h"
#include "habit/serialize.h"
#include "hexgrid/hexgrid.h"

namespace habit::api {

namespace {

// Arc-length timestamp interpolation across the gap duration, shared by the
// baseline adapters (HABIT computes its own inside the imputer).
std::vector<int64_t> InterpolateTimestamps(const geo::Polyline& path,
                                           int64_t t_start, int64_t t_end) {
  std::vector<int64_t> out(path.size(), t_start);
  if (path.empty() || t_end <= t_start) return {};
  const double total = geo::PolylineLengthMeters(path);
  if (total <= 0) {
    out.back() = t_end;
    return out;
  }
  double acc = 0;
  for (size_t i = 1; i < path.size(); ++i) {
    acc += geo::HaversineMeters(path[i - 1], path[i]);
    out[i] = t_start + static_cast<int64_t>(std::llround(
                           (t_end - t_start) * (acc / total)));
  }
  return out;
}

ImputeResponse ResponseFromPath(geo::Polyline path,
                                const ImputeRequest& request) {
  ImputeResponse response;
  response.timestamps =
      InterpolateTimestamps(path, request.t_start, request.t_end);
  response.path = std::move(path);
  return response;
}

ImputeResponse ResponseFromImputation(core::Imputation imputation) {
  ImputeResponse response;
  response.path = std::move(imputation.path);
  response.timestamps = std::move(imputation.timestamps);
  response.expanded = imputation.expanded;
  return response;
}

// Shared HABIT parameter block ("habit" and "habit_typed").
const std::vector<std::string> kHabitKeys = {
    "r", "p", "t", "cost", "expand", "snap", "threads"};

// Persistence spec parameters, shared by every snapshot-capable method:
// "load=<path>" cold-starts the model from a binary snapshot (the trips
// argument may be empty), "save=<path>" writes one after the build. Both
// may be given to convert a freshly trained model into an artifact.
// "map=1" serves the snapshot zero-copy from an mmap'd view instead of
// heap copies (cold start is still an O(nodes + edges) scan); it is a
// serving parameter and only meaningful with load=.
const char kSaveKey[] = "save";
const char kLoadKey[] = "load";
const char kMapKey[] = "map";

// ALT landmark parameters (habit only): "landmarks=<k>" precomputes k
// landmark distance columns at save time (they persist in the snapshot v3
// landmark section), "alt=1" enables the landmark-accelerated search when
// serving a loaded snapshot. alt changes search effort, never output —
// imputed paths are identical with and without it.
const char kLandmarksKey[] = "landmarks";
const char kAltKey[] = "alt";

// map=1 without a snapshot is meaningless (a freshly built model is
// heap-resident by construction), so any map parameter requires load=.
Result<bool> ParseMapped(const MethodSpec& spec) {
  if (spec.params.contains(kMapKey) &&
      spec.GetString(kLoadKey, "").empty()) {
    return Status::InvalidArgument("parameter map= requires load= (only a "
                                   "snapshot can be memory-mapped)");
  }
  HABIT_ASSIGN_OR_RETURN(const int map, spec.GetInt(kMapKey, 0));
  return map != 0;
}

// Snapshots embed the build configuration, so build parameters alongside
// load= would be silently ignored — reject the combination instead so a
// spec never aliases two different models. `serving_keys` lists parameters
// that do NOT describe the build (e.g. habit's threads) and stay legal.
Status RejectBuildParamsWithLoad(
    const MethodSpec& spec,
    const std::vector<std::string>& serving_keys = {}) {
  for (const auto& [key, value] : spec.params) {
    if (key == kSaveKey || key == kLoadKey) continue;
    if (std::find(serving_keys.begin(), serving_keys.end(), key) !=
        serving_keys.end()) {
      continue;
    }
    return Status::InvalidArgument(
        "parameter '" + key + "' conflicts with load= (the snapshot "
        "carries the build configuration)");
  }
  return Status::OK();
}

// Batch worker count from the spec ("habit:r=9,threads=8"); 1 = serial.
Result<int> ParseThreads(const MethodSpec& spec) {
  HABIT_ASSIGN_OR_RETURN(const int threads, spec.GetInt("threads", 1));
  if (threads < 1) {
    return Status::InvalidArgument("threads must be >= 1");
  }
  return threads;
}

Result<core::HabitConfig> ParseHabitConfig(const MethodSpec& spec) {
  core::HabitConfig config;
  HABIT_ASSIGN_OR_RETURN(config.resolution,
                         spec.GetInt("r", config.resolution));
  HABIT_ASSIGN_OR_RETURN(config.rdp_tolerance_m,
                         spec.GetDouble("t", config.rdp_tolerance_m));
  HABIT_ASSIGN_OR_RETURN(config.max_snap_ring,
                         spec.GetInt("snap", config.max_snap_ring));
  HABIT_RETURN_NOT_OK(core::CheckSnapRing(config.max_snap_ring));

  const std::string p = spec.GetString("p", "");
  if (p == "c") {
    config.projection = core::Projection::kCellCenter;
  } else if (p == "w") {
    config.projection = core::Projection::kDataMedian;
  } else if (!p.empty()) {
    return Status::InvalidArgument("projection p=" + p +
                                   " (expected c or w)");
  }

  const std::string cost = spec.GetString("cost", "");
  if (cost == "hops") {
    config.edge_cost = core::EdgeCostPolicy::kHops;
  } else if (cost == "invfreq") {
    config.edge_cost = core::EdgeCostPolicy::kInverseFrequency;
  } else if (cost == "hopsfreq") {
    config.edge_cost = core::EdgeCostPolicy::kHopsThenFrequency;
  } else if (!cost.empty()) {
    return Status::InvalidArgument(
        "cost=" + cost + " (expected hops, invfreq, or hopsfreq)");
  }

  HABIT_ASSIGN_OR_RETURN(const int expand, spec.GetInt("expand", 1));
  config.expand_transitions = expand != 0;
  return config;
}

std::string HabitConfigurationString(const core::HabitConfig& config) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "r=%d t=%d p=%s", config.resolution,
                static_cast<int>(config.rdp_tolerance_m),
                core::ProjectionToString(config.projection));
  return buf;
}

/// "gti": adapter over baselines::GtiModel.
class GtiAdapter : public ImputationModel {
 public:
  static Result<std::unique_ptr<ImputationModel>> Make(
      const MethodSpec& spec, const std::vector<ais::Trip>& trips) {
    HABIT_RETURN_NOT_OK(spec.CheckKnownKeys(
        {"rm", "rd", "resample", kSaveKey, kLoadKey, kMapKey}));
    HABIT_ASSIGN_OR_RETURN(const bool mapped, ParseMapped(spec));
    const std::string load_path = spec.GetString(kLoadKey, "");
    Stopwatch build_timer;
    std::unique_ptr<baselines::GtiModel> model;
    if (!load_path.empty()) {
      HABIT_RETURN_NOT_OK(RejectBuildParamsWithLoad(spec, {kMapKey}));
      HABIT_ASSIGN_OR_RETURN(model,
                             baselines::GtiModel::Load(load_path, mapped));
    } else {
      baselines::GtiConfig config;
      HABIT_ASSIGN_OR_RETURN(config.rm_meters,
                             spec.GetDouble("rm", config.rm_meters));
      HABIT_ASSIGN_OR_RETURN(config.rd_degrees,
                             spec.GetDouble("rd", config.rd_degrees));
      HABIT_ASSIGN_OR_RETURN(
          config.resample_seconds,
          spec.GetInt64("resample", config.resample_seconds));
      HABIT_ASSIGN_OR_RETURN(model, baselines::GtiModel::Build(trips, config));
    }
    const std::string save_path = spec.GetString(kSaveKey, "");
    if (!save_path.empty()) {
      HABIT_RETURN_NOT_OK(model->Save(save_path));
    }
    const baselines::GtiConfig config = model->config();
    auto adapter = std::unique_ptr<ImputationModel>(
        new GtiAdapter(std::move(model), config));
    static_cast<GtiAdapter*>(adapter.get())->build_seconds_ =
        build_timer.ElapsedSeconds();
    return adapter;
  }

  std::string Name() const override { return "GTI"; }
  std::string Configuration() const override {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "rm=%.0f rd=%.0e", config_.rm_meters,
                  config_.rd_degrees);
    return buf;
  }
  size_t SizeBytes() const override { return model_->SizeBytes(); }
  size_t SerializedSizeBytes() const override {
    return model_->SerializedSizeBytes();
  }

 protected:
  Result<ImputeResponse> ImputeValidated(
      const ImputeRequest& request,
      graph::SearchScratch* scratch) const override {
    HABIT_ASSIGN_OR_RETURN(
        geo::Polyline path,
        model_->Impute(request.gap_start, request.gap_end, scratch));
    return ResponseFromPath(std::move(path), request);
  }

 private:
  GtiAdapter(std::unique_ptr<baselines::GtiModel> model,
             const baselines::GtiConfig& config)
      : model_(std::move(model)), config_(config) {}

  std::unique_ptr<baselines::GtiModel> model_;
  baselines::GtiConfig config_;
};

/// "palmto": adapter over baselines::PalmtoModel.
class PalmtoAdapter : public ImputationModel {
 public:
  static Result<std::unique_ptr<ImputationModel>> Make(
      const MethodSpec& spec, const std::vector<ais::Trip>& trips) {
    HABIT_RETURN_NOT_OK(spec.CheckKnownKeys({"r", "n", "timeout",
                                             "max_tokens", "seed", kSaveKey,
                                             kLoadKey, kMapKey}));
    HABIT_ASSIGN_OR_RETURN(const bool mapped, ParseMapped(spec));
    const std::string load_path = spec.GetString(kLoadKey, "");
    Stopwatch build_timer;
    std::unique_ptr<baselines::PalmtoModel> model;
    if (!load_path.empty()) {
      // timeout= and max_tokens= are per-query generation budgets, not
      // build configuration — they stay overridable on a loaded model
      // (like habit's threads=).
      HABIT_RETURN_NOT_OK(
          RejectBuildParamsWithLoad(spec, {"timeout", "max_tokens", kMapKey}));
      HABIT_ASSIGN_OR_RETURN(
          model, baselines::PalmtoModel::Load(load_path, mapped));
      HABIT_ASSIGN_OR_RETURN(
          const double timeout,
          spec.GetDouble("timeout", model->config().timeout_seconds));
      HABIT_ASSIGN_OR_RETURN(
          const int max_tokens,
          spec.GetInt("max_tokens", model->config().max_tokens));
      model->set_timeout_seconds(timeout);
      model->set_max_tokens(max_tokens);
    } else {
      baselines::PalmtoConfig config;
      HABIT_ASSIGN_OR_RETURN(config.resolution,
                             spec.GetInt("r", config.resolution));
      HABIT_ASSIGN_OR_RETURN(config.n, spec.GetInt("n", config.n));
      HABIT_ASSIGN_OR_RETURN(
          config.timeout_seconds,
          spec.GetDouble("timeout", config.timeout_seconds));
      HABIT_ASSIGN_OR_RETURN(config.max_tokens,
                             spec.GetInt("max_tokens", config.max_tokens));
      HABIT_ASSIGN_OR_RETURN(
          const int64_t seed,
          spec.GetInt64("seed", static_cast<int64_t>(config.seed)));
      config.seed = static_cast<uint64_t>(seed);
      HABIT_ASSIGN_OR_RETURN(model,
                             baselines::PalmtoModel::Build(trips, config));
    }
    const std::string save_path = spec.GetString(kSaveKey, "");
    if (!save_path.empty()) {
      HABIT_RETURN_NOT_OK(model->Save(save_path));
    }
    const baselines::PalmtoConfig config = model->config();
    auto adapter = std::unique_ptr<ImputationModel>(
        new PalmtoAdapter(std::move(model), config));
    static_cast<PalmtoAdapter*>(adapter.get())->build_seconds_ =
        build_timer.ElapsedSeconds();
    return adapter;
  }

  std::string Name() const override { return "PaLMTO"; }
  std::string Configuration() const override {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "r=%d n=%d", config_.resolution,
                  config_.n);
    return buf;
  }
  size_t SizeBytes() const override { return model_->SizeBytes(); }

 protected:
  Result<ImputeResponse> ImputeValidated(
      const ImputeRequest& request,
      graph::SearchScratch* /*scratch*/) const override {
    HABIT_ASSIGN_OR_RETURN(
        geo::Polyline path,
        model_->Impute(request.gap_start, request.gap_end));
    return ResponseFromPath(std::move(path), request);
  }

 private:
  PalmtoAdapter(std::unique_ptr<baselines::PalmtoModel> model,
                const baselines::PalmtoConfig& config)
      : model_(std::move(model)), config_(config) {}

  std::unique_ptr<baselines::PalmtoModel> model_;
  baselines::PalmtoConfig config_;
};

/// "sli": the buildless straight-line baseline.
class SliAdapter : public ImputationModel {
 public:
  static Result<std::unique_ptr<ImputationModel>> Make(
      const MethodSpec& spec, const std::vector<ais::Trip>& trips) {
    (void)trips;  // SLI learns nothing from history
    HABIT_RETURN_NOT_OK(spec.CheckKnownKeys({"points"}));
    HABIT_ASSIGN_OR_RETURN(const int points, spec.GetInt("points", 0));
    if (points < 0) {
      return Status::InvalidArgument("points must be >= 0");
    }
    return std::unique_ptr<ImputationModel>(new SliAdapter(points));
  }

  std::string Name() const override { return "SLI"; }
  std::string Configuration() const override { return "-"; }
  size_t SizeBytes() const override { return 0; }

 protected:
  Result<ImputeResponse> ImputeValidated(
      const ImputeRequest& request,
      graph::SearchScratch* /*scratch*/) const override {
    return ResponseFromPath(
        baselines::StraightLineImpute(request.gap_start, request.gap_end,
                                      num_points_),
        request);
  }

 private:
  explicit SliAdapter(int num_points) : num_points_(num_points) {}

  int num_points_;
};

}  // namespace

Result<std::unique_ptr<ImputationModel>> HabitModel::Make(
    const MethodSpec& spec, const std::vector<ais::Trip>& trips) {
  std::vector<std::string> keys = kHabitKeys;
  keys.insert(keys.end(), {kSaveKey, kLoadKey, kMapKey, kLandmarksKey,
                           kAltKey});
  HABIT_RETURN_NOT_OK(spec.CheckKnownKeys(keys));
  HABIT_ASSIGN_OR_RETURN(const int threads, ParseThreads(spec));
  HABIT_ASSIGN_OR_RETURN(const bool mapped, ParseMapped(spec));
  const std::string load_path = spec.GetString(kLoadKey, "");
  const std::string save_path = spec.GetString(kSaveKey, "");
  // landmarks= is save-time precomputation: the columns only pay off when
  // they persist into a snapshot's v3 landmark section, so require save=.
  HABIT_ASSIGN_OR_RETURN(const int landmarks, spec.GetInt(kLandmarksKey, 0));
  if (spec.params.contains(kLandmarksKey)) {
    if (save_path.empty()) {
      return Status::InvalidArgument(
          "parameter landmarks= requires save= (landmark columns are "
          "precomputed into the snapshot)");
    }
    if (landmarks < 1 ||
        landmarks > static_cast<int>(graph::kMaxLandmarks)) {
      return Status::InvalidArgument(
          "landmarks must be in [1, " +
          std::to_string(graph::kMaxLandmarks) + "]");
    }
  }
  // alt=1 turns the landmark acceleration on at serve time; only a loaded
  // snapshot can carry landmark columns, so it requires load= (like map=).
  if (spec.params.contains(kAltKey) && load_path.empty()) {
    return Status::InvalidArgument(
        "parameter alt= requires load= (landmarks live in the snapshot)");
  }
  HABIT_ASSIGN_OR_RETURN(const int alt, spec.GetInt(kAltKey, 0));
  Stopwatch build_timer;
  std::unique_ptr<core::HabitFramework> framework;
  if (!load_path.empty()) {
    // O(read) cold start — no copy with map=1: the snapshot is
    // self-describing (build config + frozen CSR arrays), so build
    // parameters alongside load= are rejected — a spec must never serve a
    // graph under a mismatched resolution or cost policy. threads=, map=,
    // and alt= are serving parameters and stay legal.
    HABIT_RETURN_NOT_OK(
        RejectBuildParamsWithLoad(spec, {"threads", kMapKey, kAltKey}));
    HABIT_ASSIGN_OR_RETURN(framework,
                           core::LoadModelSnapshot(load_path, mapped));
  } else {
    HABIT_ASSIGN_OR_RETURN(const core::HabitConfig config,
                           ParseHabitConfig(spec));
    HABIT_ASSIGN_OR_RETURN(framework,
                           core::HabitFramework::Build(trips, config));
    if (landmarks > 0) {
      HABIT_RETURN_NOT_OK(
          framework->PrecomputeLandmarks(static_cast<size_t>(landmarks)));
    }
  }
  framework->set_use_landmarks(alt != 0);
  if (!save_path.empty()) {
    HABIT_RETURN_NOT_OK(core::SaveModelSnapshot(*framework, save_path));
  }
  auto model = std::unique_ptr<ImputationModel>(
      new HabitModel(std::move(framework), threads));
  static_cast<HabitModel*>(model.get())->build_seconds_ =
      build_timer.ElapsedSeconds();
  return model;
}

std::string HabitModel::Configuration() const {
  return HabitConfigurationString(framework_->config());
}

Result<ImputeResponse> HabitModel::ImputeValidated(
    const ImputeRequest& request, graph::SearchScratch* scratch) const {
  HABIT_ASSIGN_OR_RETURN(
      core::Imputation imputation,
      framework_->Impute(request.gap_start, request.gap_end, request.t_start,
                         request.t_end, scratch));
  return ResponseFromImputation(std::move(imputation));
}

uint64_t HabitModel::ClaimKey(const ImputeRequest& request) const {
  return hex::LatLngToCell(request.gap_start, framework_->config().resolution);
}

Result<std::unique_ptr<ImputationModel>> TypedHabitModel::Make(
    const MethodSpec& spec, const std::vector<ais::Trip>& trips) {
  std::vector<std::string> keys = kHabitKeys;
  keys.push_back("min_trips");
  HABIT_RETURN_NOT_OK(spec.CheckKnownKeys(keys));
  HABIT_ASSIGN_OR_RETURN(const core::HabitConfig config,
                         ParseHabitConfig(spec));
  HABIT_ASSIGN_OR_RETURN(const int min_trips, spec.GetInt("min_trips", 8));
  if (min_trips < 1) {
    return Status::InvalidArgument("min_trips must be >= 1");
  }
  HABIT_ASSIGN_OR_RETURN(const int threads, ParseThreads(spec));
  Stopwatch build_timer;
  HABIT_ASSIGN_OR_RETURN(
      auto framework,
      core::TypedHabitFramework::Build(trips, config,
                                       static_cast<size_t>(min_trips)));
  auto model = std::unique_ptr<ImputationModel>(new TypedHabitModel(
      std::move(framework), HabitConfigurationString(config), threads));
  static_cast<TypedHabitModel*>(model.get())->build_seconds_ =
      build_timer.ElapsedSeconds();
  return model;
}

std::string TypedHabitModel::Configuration() const { return configuration_; }

// Requests with a vessel type go to the per-type graph, the rest to the
// combined graph; both share the worker's scratch.
Result<ImputeResponse> TypedHabitModel::ImputeValidated(
    const ImputeRequest& request, graph::SearchScratch* scratch) const {
  HABIT_ASSIGN_OR_RETURN(
      core::Imputation imputation,
      request.vessel_type.has_value()
          ? framework_->Impute(*request.vessel_type, request.gap_start,
                               request.gap_end, request.t_start,
                               request.t_end, scratch)
          : framework_->combined().Impute(request.gap_start,
                                          request.gap_end, request.t_start,
                                          request.t_end, scratch));
  return ResponseFromImputation(std::move(imputation));
}

uint64_t TypedHabitModel::ClaimKey(const ImputeRequest& request) const {
  return hex::LatLngToCell(request.gap_start,
                           framework_->combined().config().resolution);
}

size_t TypedHabitModel::SizeBytes() const { return framework_->SizeBytes(); }

void RegisterBuiltinModels(ModelRegistry& registry) {
  // Registration of the built-ins cannot collide; assert via the Status.
  Status st;
  st = registry.Register(
      "habit",
      "HABIT transition-graph imputation (r, p, t, cost, expand, "
      "landmarks, save, load, map, alt)",
      HabitModel::Make);
  assert(st.ok());
  st = registry.Register(
      "habit_typed",
      "vessel-type-aware HABIT (habit params + min_trips per type)",
      TypedHabitModel::Make);
  assert(st.ok());
  st = registry.Register(
      "gti", "GTI point-graph baseline (rm, rd, resample, save, load, map)",
      GtiAdapter::Make);
  assert(st.ok());
  st = registry.Register(
      "palmto",
      "PaLMTO N-gram baseline (r, n, timeout, max_tokens, seed, save, "
      "load, map)",
      PalmtoAdapter::Make);
  assert(st.ok());
  st = registry.Register("sli", "straight-line interpolation (points)",
                         SliAdapter::Make);
  assert(st.ok());
  (void)st;
}

}  // namespace habit::api
