// habit_cli — command-line front end for the HABIT pipeline.
//
// Subcommands:
//   simulate <DAN|KIEL|SAR> <out.csv> [scale]
//       generate a synthetic AIS feed and write it as CSV
//   build <ais.csv> <model_prefix> [spec]
//       clean + segment an AIS CSV and build a HABIT model via the method
//       registry (spec defaults to "habit"; e.g. "habit:r=10,t=100")
//       (writes <model_prefix>_nodes.csv / _edges.csv)
//   impute <model_prefix> <lat1> <lng1> <lat2> <lng2> [r] [t]
//       load a persisted model and impute one gap, printing the path as CSV
//   snapshot <ais.csv> <snapshot.bin> [spec]
//       build any snapshot-capable method ("habit", "gti", "palmto") and
//       write its binary snapshot (versioned + checksummed; O(read) load).
//       For habit, "landmarks=<k>" additionally precomputes k ALT landmark
//       distance columns into the snapshot (v3 section), which
//       "alt=1"-serving then uses to cut long-gap search effort
//   shard-build <ais.csv> <out_dir> [spec] [parent_res] [halo_k]
//       partition the corpus by H3 parent cell and train one model per
//       shard (clipped to a k-ring overlap halo) plus a full-graph
//       fallback; writes per-shard snapshots and the checksummed
//       manifest.json habit_route serves from
//   serve-from-snapshot <snapshot.bin> <lat1> <lng1> <lat2> <lng2> [spec]
//       cold-start a model from a snapshot — no trips, no retraining — and
//       impute one gap, printing the path as CSV. The model is resolved
//       through a byte-budgeted ModelCache (cold + warm timings go to
//       stderr); pass a spec like "habit:map=1" to serve the CSR arrays
//       zero-copy from the mmap'd snapshot instead of heap copies, and
//       "habit:alt=1" to search under the snapshot's ALT landmarks
//       (identical output, fewer expanded nodes)
//   eval <DAN|KIEL|SAR> <spec> [scale]
//       run any registered method over a synthetic experiment and print
//       its report row (spec e.g. "habit:r=9", "gti:rd=5e-4", "sli")
//   methods
//       list the methods the registry knows
//   stats <ais.csv>
//       print cleaning / segmentation statistics for a feed
//   ingest-lines <ais.csv> [batch]
//       clean + segment an AIS CSV exactly like `build`, then print the
//       trips as `{"op":"ingest",...}` protocol lines (batched, default
//       256 trips per frame) for piping into a live-ingest habit_serve:
//         habit_cli ingest-lines feed.csv | habit_serve --stdin \
//             --ingest-spec habit:r=9
//       follow with '{"op":"rollover"}' to make the staged trips
//       servable (see README "Live ingest & epoch rollover")
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ais/io.h"
#include "ais/segment.h"
#include "api/adapters.h"
#include "core/parse.h"
#include "core/stopwatch.h"
#include "eval/harness.h"
#include "eval/report.h"
#include "graph/snapshot.h"
#include "habit/imputer.h"
#include "habit/serialize.h"
#include "router/shard_builder.h"
#include "server/server.h"
#include "sim/datasets.h"

namespace {

using namespace habit;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Checked argument parsing (exit code 2 paths). atof/atoi would silently
// turn garbage into 0 — "habit_cli impute m junk junk 54 10" must fail
// loudly, not impute a gap from (0,0).

/// Prints `usage` and returns 2 — argument errors are usage errors.
int UsageError(const Status& status, const char* usage) {
  std::fprintf(stderr, "error: %s\nusage: %s\n", status.ToString().c_str(),
               usage);
  return 2;
}

Result<double> ParseArgDouble(const char* arg, const char* name) {
  auto v = core::ParseDouble(arg);
  if (!v.ok()) {
    return Status::InvalidArgument(std::string(name) + ": " +
                                   v.status().message());
  }
  return v;
}

Result<int> ParseArgInt(const char* arg, const char* name) {
  auto v = core::ParseInt(arg);
  if (!v.ok()) {
    return Status::InvalidArgument(std::string(name) + ": " +
                                   v.status().message());
  }
  return v;
}

/// A lat/lng pair with geographic range validation (finite, |lat| <= 90,
/// |lng| <= 180).
Result<geo::LatLng> ParseArgLatLng(const char* lat_arg, const char* lng_arg,
                                   const char* name) {
  HABIT_ASSIGN_OR_RETURN(const double lat, ParseArgDouble(lat_arg, name));
  HABIT_ASSIGN_OR_RETURN(const double lng, ParseArgDouble(lng_arg, name));
  const geo::LatLng pos{lat, lng};
  if (!pos.IsValid()) {
    return Status::InvalidArgument(std::string(name) + ": " + pos.ToString() +
                                   " is outside valid geographic bounds");
  }
  return pos;
}

/// Dataset scale factor: a finite double in (0, 1000].
Result<double> ParseArgScale(const char* arg) {
  HABIT_ASSIGN_OR_RETURN(const double scale, ParseArgDouble(arg, "scale"));
  if (scale <= 0 || scale > 1000) {
    return Status::InvalidArgument("scale " + std::string(arg) +
                                   " out of range (0, 1000]");
  }
  return scale;
}

int CmdSimulate(int argc, char** argv) {
  constexpr char kUsage[] =
      "habit_cli simulate <DAN|KIEL|SAR> <out.csv> [scale]";
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s\n", kUsage);
    return 2;
  }
  sim::DatasetOptions options;
  if (argc > 2) {
    const auto scale = ParseArgScale(argv[2]);
    if (!scale.ok()) return UsageError(scale.status(), kUsage);
    options.scale = scale.value();
  }
  auto ds = sim::MakeDataset(argv[0], options);
  if (!ds.ok()) return Fail(ds.status());
  const Status st = ais::WriteAisCsv(ds.value().records, argv[1]);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %zu AIS records (%.1f MB) to %s\n",
              ds.value().records.size(), ds.value().SizeMb(), argv[1]);
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc < 1) {
    std::fprintf(stderr, "usage: habit_cli stats <ais.csv>\n");
    return 2;
  }
  size_t skipped = 0;
  auto records = ais::ReadAisCsv(argv[0], &skipped);
  if (!records.ok()) return Fail(records.status());
  ais::CleanStats clean_stats;
  const auto trips =
      ais::PreprocessAndSegment(records.value(), {}, &clean_stats);
  std::printf("records: %zu (+%zu unparseable rows skipped)\n",
              records.value().size(), skipped);
  std::printf("cleaning: %zu invalid coords, %zu non-finite sog/cog, %zu "
              "invalid speeds, %zu duplicates, %zu out-of-order, %zu speed "
              "spikes -> %zu kept\n",
              clean_stats.invalid_coords, clean_stats.non_finite_motion,
              clean_stats.invalid_speed,
              clean_stats.duplicates, clean_stats.out_of_order,
              clean_stats.speed_spikes, clean_stats.kept);
  std::printf("trips: %zu (%zu positions, %zu vessels)\n", trips.size(),
              ais::TotalPoints(trips), ais::DistinctVessels(trips));
  return 0;
}

int CmdBuild(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: habit_cli build <ais.csv> <model_prefix> [spec]\n");
    return 2;
  }
  auto records = ais::ReadAisCsv(argv[0]);
  if (!records.ok()) return Fail(records.status());
  const auto trips = ais::PreprocessAndSegment(records.value());
  const std::string spec = argc > 2 ? argv[2] : "habit";
  auto model = api::MakeModel(spec, trips);
  if (!model.ok()) return Fail(model.status());
  // Persistence needs the transition graph, which only the HABIT adapter
  // carries.
  const auto* habit_model =
      dynamic_cast<const api::HabitModel*>(model.value().get());
  if (habit_model == nullptr) {
    std::fprintf(stderr, "error: '%s' built a %s model; only 'habit' models "
                         "can be persisted\n",
                 spec.c_str(), model.value()->Name().c_str());
    return 2;
  }
  const core::HabitFramework& fw = habit_model->framework();
  const Status st = core::SaveGraphCsv(fw.graph(), argv[1]);
  if (!st.ok()) return Fail(st);
  std::printf("built %s from %zu trips in %.2fs: %zu cells, %zu transitions, "
              "%.2f MB -> %s_{nodes,edges}.csv\n",
              model.value()->Configuration().c_str(), trips.size(),
              model.value()->BuildSeconds(), fw.graph().num_nodes(),
              fw.graph().num_edges(),
              eval::BytesToMb(model.value()->SerializedSizeBytes()), argv[1]);
  return 0;
}

int CmdImpute(int argc, char** argv) {
  constexpr char kUsage[] =
      "habit_cli impute <model_prefix> <lat1> <lng1> <lat2> <lng2> [r] [t]";
  if (argc < 5) {
    std::fprintf(stderr, "usage: %s\n", kUsage);
    return 2;
  }
  const auto a = ParseArgLatLng(argv[1], argv[2], "gap start");
  if (!a.ok()) return UsageError(a.status(), kUsage);
  const auto b = ParseArgLatLng(argv[3], argv[4], "gap end");
  if (!b.ok()) return UsageError(b.status(), kUsage);
  core::HabitConfig config;
  if (argc > 5) {
    const auto r = ParseArgInt(argv[5], "r (resolution)");
    if (!r.ok()) return UsageError(r.status(), kUsage);
    if (r.value() < 0 || r.value() > hex::kMaxResolution) {
      return UsageError(
          Status::InvalidArgument(
              "r (resolution) " + std::to_string(r.value()) +
              " out of range [0, " + std::to_string(hex::kMaxResolution) +
              "]"),
          kUsage);
    }
    config.resolution = r.value();
  }
  if (argc > 6) {
    const auto t = ParseArgDouble(argv[6], "t (RDP tolerance, m)");
    if (!t.ok()) return UsageError(t.status(), kUsage);
    if (t.value() < 0) {
      return UsageError(Status::InvalidArgument(
                            "t (RDP tolerance, m) must be >= 0"),
                        kUsage);
    }
    config.rdp_tolerance_m = t.value();
  }
  auto loaded = core::LoadGraphCsv(argv[0], config);
  if (!loaded.ok()) return Fail(loaded.status());
  // Queries run against the frozen CSR form; the mutable graph is dropped.
  const graph::CompactGraph frozen = loaded.value().Freeze();
  const core::Imputer imputer(&frozen, config);
  auto imp = imputer.Impute(a.value(), b.value(), 0, 3600);
  if (!imp.ok()) return Fail(imp.status());
  std::printf("idx,lat,lng\n");
  for (size_t i = 0; i < imp.value().path.size(); ++i) {
    std::printf("%zu,%.6f,%.6f\n", i, imp.value().path[i].lat,
                imp.value().path[i].lng);
  }
  std::fprintf(stderr, "%zu cells traversed, %zu path points after RDP\n",
               imp.value().cells.size(), imp.value().path.size());
  return 0;
}

// Parses `spec`, injects key=path (the save/load persistence parameter),
// and fails when the spec already carries it.
Result<api::MethodSpec> SpecWithPath(const std::string& spec,
                                     const std::string& key,
                                     const std::string& path) {
  HABIT_ASSIGN_OR_RETURN(api::MethodSpec parsed, api::MethodSpec::Parse(spec));
  if (parsed.params.contains(key)) {
    return Status::InvalidArgument("spec '" + spec + "' already sets " + key +
                                   "= (pass the path as the positional "
                                   "argument instead)");
  }
  parsed.params[key] = path;
  return parsed;
}

int CmdSnapshot(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: habit_cli snapshot <ais.csv> <snapshot.bin> "
                         "[spec]\n");
    return 2;
  }
  auto records = ais::ReadAisCsv(argv[0]);
  if (!records.ok()) return Fail(records.status());
  const auto trips = ais::PreprocessAndSegment(records.value());
  const std::string path = argv[1];
  auto spec = SpecWithPath(argc > 2 ? argv[2] : "habit", "save", path);
  if (!spec.ok()) return Fail(spec.status());
  auto model = api::MakeModel(spec.value(), trips);
  if (!model.ok()) return Fail(model.status());
  auto info = graph::InspectSnapshot(path);
  if (!info.ok()) return Fail(info.status());
  std::printf("built %s %s from %zu trips in %.2fs -> %s (%.2f MB, "
              "fingerprint %016llx)\n",
              model.value()->Name().c_str(),
              model.value()->Configuration().c_str(), trips.size(),
              model.value()->BuildSeconds(), path.c_str(),
              eval::BytesToMb(info.value().payload_bytes),
              static_cast<unsigned long long>(info.value().checksum));
  return 0;
}

int CmdShardBuild(int argc, char** argv) {
  constexpr char kUsage[] =
      "habit_cli shard-build <ais.csv> <out_dir> [spec] [parent_res] "
      "[halo_k]";
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s\n", kUsage);
    return 2;
  }
  router::ShardBuildOptions options;
  options.out_dir = argv[1];
  if (argc > 2) options.spec = argv[2];
  if (argc > 3) {
    const auto parent_res = ParseArgInt(argv[3], "parent_res");
    if (!parent_res.ok()) return UsageError(parent_res.status(), kUsage);
    options.parent_res = parent_res.value();
  }
  if (argc > 4) {
    const auto halo_k = ParseArgInt(argv[4], "halo_k");
    if (!halo_k.ok()) return UsageError(halo_k.status(), kUsage);
    options.halo_k = halo_k.value();
  }
  auto records = ais::ReadAisCsv(argv[0]);
  if (!records.ok()) return Fail(records.status());
  const auto trips = ais::PreprocessAndSegment(records.value());
  auto manifest = router::BuildShards(trips, options);
  if (!manifest.ok()) return Fail(manifest.status());
  for (const router::ShardEntry& shard : manifest.value().shards) {
    std::printf("shard %s: %llu trips, %llu points -> %s\n",
                router::CellToHex(shard.parent_cell).c_str(),
                static_cast<unsigned long long>(shard.trips),
                static_cast<unsigned long long>(shard.points),
                shard.snapshot_path.c_str());
  }
  const router::ShardEntry& fb = manifest.value().fallback;
  std::printf("fallback: %llu trips, %llu points -> %s\n",
              static_cast<unsigned long long>(fb.trips),
              static_cast<unsigned long long>(fb.points),
              fb.snapshot_path.c_str());
  std::printf("built %zu shards (parent_res=%d, halo_k=%d, spec=%s) -> "
              "%s/manifest.json\n",
              manifest.value().shards.size(), manifest.value().parent_res,
              manifest.value().halo_k, manifest.value().spec.c_str(),
              options.out_dir.c_str());
  return 0;
}

int CmdServeFromSnapshot(int argc, char** argv) {
  constexpr char kUsage[] =
      "habit_cli serve-from-snapshot <snapshot.bin> <lat1> <lng1> <lat2> "
      "<lng2> [spec]";
  if (argc < 5) {
    std::fprintf(stderr, "usage: %s\n", kUsage);
    return 2;
  }
  const auto a = ParseArgLatLng(argv[1], argv[2], "gap start");
  if (!a.ok()) return UsageError(a.status(), kUsage);
  const auto b = ParseArgLatLng(argv[3], argv[4], "gap end");
  if (!b.ok()) return UsageError(b.status(), kUsage);
  auto spec = SpecWithPath(argc > 5 ? argv[5] : "habit", "load", argv[0]);
  if (!spec.ok()) return Fail(spec.status());
  // Cold start: no trips, the snapshot is the whole model. Resolution goes
  // through the same server::Server path habit_serve runs for its
  // lifetime — one process-wide ModelCache — here exercised for one cold
  // and one warm hit (the second Resolve is O(1) plus a snapshot header
  // probe).
  server::ServerOptions options;
  options.cache_bytes = 1ull << 30;
  options.threads = 1;
  server::Server server(options);
  Stopwatch cold_timer;
  auto model = server.Resolve(spec.value());
  if (!model.ok()) return Fail(model.status());
  const double cold_s = cold_timer.ElapsedSeconds();
  Stopwatch warm_timer;
  auto warm = server.Resolve(spec.value());
  if (!warm.ok()) return Fail(warm.status());
  const double warm_s = warm_timer.ElapsedSeconds();
  api::ImputeRequest req;
  req.gap_start = a.value();
  req.gap_end = b.value();
  req.t_start = 0;
  req.t_end = 3600;
  auto response = model.value()->Impute(req);
  if (!response.ok()) return Fail(response.status());
  std::printf("idx,lat,lng\n");
  for (size_t i = 0; i < response.value().path.size(); ++i) {
    std::printf("%zu,%.6f,%.6f\n", i, response.value().path[i].lat,
                response.value().path[i].lng);
  }
  const api::ModelCache::Stats stats = server.cache().stats();
  std::fprintf(stderr,
               "%s %s cold load %.3fs, warm cache hit %.6fs "
               "(%llu hit/%llu miss, %.2f MB cached), %zu path points\n",
               model.value()->Name().c_str(),
               model.value()->Configuration().c_str(), cold_s, warm_s,
               static_cast<unsigned long long>(stats.hits),
               static_cast<unsigned long long>(stats.misses),
               eval::BytesToMb(server.cache().SizeBytes()),
               response.value().path.size());
  return 0;
}

int CmdEval(int argc, char** argv) {
  constexpr char kUsage[] = "habit_cli eval <DAN|KIEL|SAR> <spec> [scale]";
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s\n", kUsage);
    return 2;
  }
  eval::ExperimentOptions options;
  if (argc > 2) {
    const auto scale = ParseArgScale(argv[2]);
    if (!scale.ok()) return UsageError(scale.status(), kUsage);
    options.scale = scale.value();
  }
  auto exp = eval::PrepareExperiment(argv[0], options);
  if (!exp.ok()) return Fail(exp.status());
  auto report = eval::RunMethod(exp.value(), std::string(argv[1]));
  if (!report.ok()) return Fail(report.status());
  std::printf("%s [%zu gaps]\n", argv[0], exp.value().gaps.size());
  std::printf("%s\n", eval::FormatReportRow(report.value()).c_str());
  return 0;
}

int CmdIngestLines(int argc, char** argv) {
  constexpr char kUsage[] = "habit_cli ingest-lines <ais.csv> [batch]";
  if (argc < 1 || argc > 2) {
    return UsageError(Status::InvalidArgument("expected 1-2 arguments"),
                      kUsage);
  }
  size_t batch = 256;
  if (argc == 2) {
    const auto parsed = ParseArgInt(argv[1], "batch");
    if (!parsed.ok()) return UsageError(parsed.status(), kUsage);
    if (parsed.value() < 1) {
      return UsageError(Status::InvalidArgument("batch must be >= 1"),
                        kUsage);
    }
    batch = static_cast<size_t>(parsed.value());
  }
  size_t skipped = 0;
  auto records = ais::ReadAisCsv(argv[0], &skipped);
  if (!records.ok()) return Fail(records.status());
  const std::vector<ais::Trip> trips =
      ais::PreprocessAndSegment(records.value());
  size_t frames = 0;
  for (size_t i = 0; i < trips.size(); i += batch) {
    const size_t n = std::min(trips.size() - i, batch);
    std::printf("%s\n",
                server::EncodeIngestRequest({trips.data() + i, n}).c_str());
    ++frames;
  }
  std::fprintf(stderr,
               "ingest-lines: %zu trips from %zu records (%zu rows "
               "skipped) in %zu frames\n",
               trips.size(), records.value().size(), skipped, frames);
  return 0;
}

int CmdMethods() {
  const api::ModelRegistry& registry = api::ModelRegistry::Global();
  for (const std::string& name : registry.MethodNames()) {
    std::printf("%-12s %s\n", name.c_str(),
                registry.Description(name).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "habit_cli — HABIT vessel-trajectory imputation toolkit\n"
                 "commands: simulate | stats | build | impute | snapshot | "
                 "shard-build | serve-from-snapshot | eval | methods | "
                 "ingest-lines\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "simulate") return CmdSimulate(argc - 2, argv + 2);
  if (cmd == "stats") return CmdStats(argc - 2, argv + 2);
  if (cmd == "build") return CmdBuild(argc - 2, argv + 2);
  if (cmd == "impute") return CmdImpute(argc - 2, argv + 2);
  if (cmd == "snapshot") return CmdSnapshot(argc - 2, argv + 2);
  if (cmd == "shard-build") return CmdShardBuild(argc - 2, argv + 2);
  if (cmd == "serve-from-snapshot") {
    return CmdServeFromSnapshot(argc - 2, argv + 2);
  }
  if (cmd == "eval") return CmdEval(argc - 2, argv + 2);
  if (cmd == "methods") return CmdMethods();
  if (cmd == "ingest-lines") return CmdIngestLines(argc - 2, argv + 2);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
