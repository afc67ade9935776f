#include "graph/snapshot.h"

#include <cmath>
#include <cstdio>
#include <numeric>
#include <utility>

namespace habit::graph {

// FNV-1a 64 over the payload bytes: fast, dependency-free, and stable
// across platforms (the format is little-endian by construction — every
// supported target writes scalars in native LE order).
uint64_t Fnv1a64(const char* data, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

constexpr size_t kChecksumBytes = sizeof(uint64_t);

// Parses and sanity-checks the fixed-size header fields against the total
// file size. Shared by every load path (copying, mapped, inspect, probe).
Status ParseHeader(const char* bytes, uint64_t file_size,
                   const std::string& path, SnapshotInfo* info) {
  uint32_t header[3];
  uint64_t payload_bytes = 0;
  std::memcpy(header, bytes, sizeof(header));
  std::memcpy(&payload_bytes, bytes + sizeof(header), sizeof(payload_bytes));
  if (header[0] != kSnapshotMagic) {
    return Status::InvalidArgument("'" + path + "' is not a model snapshot "
                                   "(bad magic)");
  }
  if (header[1] != kSnapshotVersion) {
    return Status::InvalidArgument(
        "snapshot '" + path + "' has container version " +
        std::to_string(header[1]) + ", but this build reads only version " +
        std::to_string(kSnapshotVersion) + " (re-save it with this build)");
  }
  if (payload_bytes != file_size - kSnapshotHeaderBytes - kChecksumBytes) {
    return Status::IoError("snapshot '" + path +
                           "' payload length does not match the file size");
  }
  info->kind = static_cast<SnapshotKind>(header[2]);
  info->version = header[1];
  info->payload_bytes = payload_bytes;
  return Status::OK();
}

}  // namespace

Status SnapshotWriter::WriteToFile(const std::string& path,
                                   SnapshotKind kind) const {
  // Write to a sibling temp file and rename into place, so refreshing an
  // existing artifact is atomic: a crash mid-save leaves the previous
  // good snapshot untouched instead of a truncated file.
  const std::string tmp_path = path + ".tmp";
  {
    FilePtr f(std::fopen(tmp_path.c_str(), "wb"));
    if (f == nullptr) {
      return Status::IoError("cannot open '" + tmp_path + "' for writing");
    }
    const uint32_t header[3] = {kSnapshotMagic, kSnapshotVersion,
                                static_cast<uint32_t>(kind)};
    const uint64_t payload_bytes = payload_.size();
    const uint64_t checksum = Fnv1a64(payload_.data(), payload_.size());
    bool ok =
        std::fwrite(header, sizeof(header), 1, f.get()) == 1 &&
        std::fwrite(&payload_bytes, sizeof(payload_bytes), 1, f.get()) == 1;
    if (ok && !payload_.empty()) {
      ok = std::fwrite(payload_.data(), payload_.size(), 1, f.get()) == 1;
    }
    ok = ok && std::fwrite(&checksum, sizeof(checksum), 1, f.get()) == 1;
    if (!ok || std::fflush(f.get()) != 0) {
      std::remove(tmp_path.c_str());
      return Status::IoError("short write to '" + tmp_path + "'");
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("cannot move snapshot into place at '" + path +
                           "'");
  }
  return Status::OK();
}

namespace {

// A mapped snapshot whose header has been validated against the file size.
// info.checksum holds the *stored* checksum; nothing has been hashed yet.
struct MappedSnapshot {
  SnapshotInfo info;
  std::shared_ptr<const MmapRegion> region;
};

Result<MappedSnapshot> MapSnapshot(const std::string& path) {
  HABIT_ASSIGN_OR_RETURN(MmapRegion mapped, MmapRegion::MapFile(path));
  if (mapped.size() < kSnapshotHeaderBytes + kChecksumBytes) {
    return Status::IoError("snapshot '" + path + "' is truncated");
  }
  MappedSnapshot snap;
  HABIT_RETURN_NOT_OK(
      ParseHeader(mapped.data(), mapped.size(), path, &snap.info));
  std::memcpy(&snap.info.checksum,
              mapped.data() + mapped.size() - kChecksumBytes, kChecksumBytes);
  snap.region = std::make_shared<const MmapRegion>(std::move(mapped));
  return snap;
}

const char* PayloadOf(const MappedSnapshot& snap) {
  return snap.region->data() + kSnapshotHeaderBytes;
}

// Recomputes the payload hash: pages in every byte of the file.
Status VerifyChecksum(const MappedSnapshot& snap, const std::string& path) {
  if (Fnv1a64(PayloadOf(snap), snap.info.payload_bytes) !=
      snap.info.checksum) {
    return Status::IoError("snapshot '" + path +
                           "' is corrupt (checksum mismatch)");
  }
  return Status::OK();
}

Status CheckKind(SnapshotKind got, SnapshotKind expected,
                 const std::string& path) {
  if (got == expected) return Status::OK();
  return Status::InvalidArgument(
      "snapshot '" + path + "' holds kind " +
      std::to_string(static_cast<uint32_t>(got)) + ", expected " +
      std::to_string(static_cast<uint32_t>(expected)));
}

}  // namespace

Result<SnapshotReader> SnapshotReader::Open(const std::string& path,
                                            SnapshotKind expected_kind,
                                            bool zero_copy) {
  HABIT_ASSIGN_OR_RETURN(MappedSnapshot snap, MapSnapshot(path));
  HABIT_RETURN_NOT_OK(CheckKind(snap.info.kind, expected_kind, path));
  // Only the copy load hashes the payload: it reads every byte anyway,
  // while for a zero-copy load hashing would be the O(model-size) work the
  // mapped path exists to avoid.
  if (!zero_copy) HABIT_RETURN_NOT_OK(VerifyChecksum(snap, path));
  SnapshotReader reader;
  reader.payload_ = {PayloadOf(snap),
                     static_cast<size_t>(snap.info.payload_bytes)};
  reader.region_ = std::move(snap.region);
  reader.zero_copy_ = zero_copy;
  return reader;
}

Result<SnapshotInfo> InspectSnapshot(const std::string& path) {
  HABIT_ASSIGN_OR_RETURN(const MappedSnapshot snap, MapSnapshot(path));
  HABIT_RETURN_NOT_OK(VerifyChecksum(snap, path));
  return snap.info;
}

Result<SnapshotInfo> ProbeSnapshot(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::IoError("cannot open snapshot '" + path + "'");
  }
  std::fseek(f.get(), 0, SEEK_END);
  const long file_size = std::ftell(f.get());
  std::fseek(f.get(), 0, SEEK_SET);
  if (file_size < 0 || static_cast<size_t>(file_size) <
                           kSnapshotHeaderBytes + kChecksumBytes) {
    return Status::IoError("snapshot '" + path + "' is truncated");
  }
  char header_bytes[kSnapshotHeaderBytes];
  if (std::fread(header_bytes, sizeof(header_bytes), 1, f.get()) != 1) {
    return Status::IoError("cannot read snapshot header of '" + path + "'");
  }
  SnapshotInfo info;
  HABIT_RETURN_NOT_OK(ParseHeader(header_bytes,
                                  static_cast<uint64_t>(file_size), path,
                                  &info));
  uint64_t stored_checksum = 0;
  if (std::fseek(f.get(), -static_cast<long>(kChecksumBytes), SEEK_END) != 0 ||
      std::fread(&stored_checksum, sizeof(stored_checksum), 1, f.get()) != 1) {
    return Status::IoError("cannot read snapshot checksum of '" + path + "'");
  }
  info.checksum = stored_checksum;
  return info;
}

void AppendGraphSection(SnapshotWriter& writer, const CompactGraph& g) {
  writer.Array(g.node_ids_);
  writer.Array(g.row_offsets_);
  writer.Array(g.edge_dst_);
  writer.Array(g.edge_weight_);
  writer.Array(g.in_degree_);
  writer.U32(g.has_attrs() ? 1 : 0);
  if (g.has_attrs()) {
    writer.Array(g.edge_transitions_);
    writer.Array(g.edge_grid_distance_);
    writer.Array(g.median_pos_);
    writer.Array(g.center_pos_);
    writer.Array(g.message_count_);
    writer.Array(g.distinct_vessels_);
    writer.Array(g.median_sog_);
    writer.Array(g.median_cog_);
  }
  // The ALT landmark block closes the section (k = 0 when the graph
  // carries no precomputation).
  writer.U32(static_cast<uint32_t>(g.num_landmarks()));
  writer.Array(g.landmark_nodes_);
  writer.Array(g.landmark_from_);
  writer.Array(g.landmark_to_);
}

namespace {

// The graph columns as views into the mapped payload — the one shape both
// loads parse into and validate.
struct GraphCols {
  std::span<const NodeId> node_ids;
  std::span<const uint32_t> row_offsets;
  std::span<const NodeIndex> edge_dst;
  std::span<const double> edge_weight;
  std::span<const uint32_t> in_degree;
  bool has_attrs = false;
  std::span<const int64_t> edge_transitions;
  std::span<const int64_t> edge_grid_distance;
  std::span<const geo::LatLng> median_pos;
  std::span<const geo::LatLng> center_pos;
  std::span<const int64_t> message_count;
  std::span<const int64_t> distinct_vessels;
  std::span<const double> median_sog;
  std::span<const double> median_cog;
  uint32_t num_landmarks = 0;  ///< the landmark block's declared count
  std::span<const NodeIndex> landmark_nodes;
  std::span<const double> landmark_from;
  std::span<const double> landmark_to;
};

Result<GraphCols> ReadGraphCols(SnapshotReader& reader) {
  GraphCols c;
  HABIT_RETURN_NOT_OK(reader.ArrayView(&c.node_ids));
  HABIT_RETURN_NOT_OK(reader.ArrayView(&c.row_offsets));
  HABIT_RETURN_NOT_OK(reader.ArrayView(&c.edge_dst));
  HABIT_RETURN_NOT_OK(reader.ArrayView(&c.edge_weight));
  HABIT_RETURN_NOT_OK(reader.ArrayView(&c.in_degree));
  HABIT_ASSIGN_OR_RETURN(const uint32_t has_attrs, reader.U32());
  c.has_attrs = has_attrs != 0;
  if (c.has_attrs) {
    HABIT_RETURN_NOT_OK(reader.ArrayView(&c.edge_transitions));
    HABIT_RETURN_NOT_OK(reader.ArrayView(&c.edge_grid_distance));
    HABIT_RETURN_NOT_OK(reader.ArrayView(&c.median_pos));
    HABIT_RETURN_NOT_OK(reader.ArrayView(&c.center_pos));
    HABIT_RETURN_NOT_OK(reader.ArrayView(&c.message_count));
    HABIT_RETURN_NOT_OK(reader.ArrayView(&c.distinct_vessels));
    HABIT_RETURN_NOT_OK(reader.ArrayView(&c.median_sog));
    HABIT_RETURN_NOT_OK(reader.ArrayView(&c.median_cog));
  }
  HABIT_ASSIGN_OR_RETURN(c.num_landmarks, reader.U32());
  HABIT_RETURN_NOT_OK(reader.ArrayView(&c.landmark_nodes));
  HABIT_RETURN_NOT_OK(reader.ArrayView(&c.landmark_from));
  HABIT_RETURN_NOT_OK(reader.ArrayView(&c.landmark_to));
  return c;
}

// Structural invariants the search engine and IndexOf rely on. The
// checksum catches bit rot (copying path only); these catch a well-formed
// file holding an impossible graph (hand-edited, or written by a buggy
// producer) on both paths — and they must pass before the id-lookup
// table is built, which assumes distinct ids. Weights must be finite and
// non-negative: a NaN would break the search queue's strict weak ordering,
// and a negative cost would make settled distances wrong. The landmark
// columns get the same treatment (ValidateLandmarks). The weight scan also
// records the weights' range into `weights`, so a mapped load touches each
// weight once.
Status ValidateGraphCols(const GraphCols& c, WeightRange* weights) {
  const size_t n = c.node_ids.size();
  const size_t m = c.edge_dst.size();
  if (c.row_offsets.size() != n + 1 || c.row_offsets.front() != 0 ||
      c.row_offsets.back() != m) {
    return Status::IoError("graph snapshot: row offsets do not frame the "
                           "edge arrays");
  }
  for (size_t i = 0; i + 1 < c.row_offsets.size(); ++i) {
    if (c.row_offsets[i] > c.row_offsets[i + 1]) {
      return Status::IoError("graph snapshot: row offsets not monotonic");
    }
  }
  for (size_t i = 0; i + 1 < n; ++i) {
    if (c.node_ids[i] >= c.node_ids[i + 1]) {
      return Status::IoError("graph snapshot: node ids not strictly "
                             "ascending");
    }
  }
  for (const NodeIndex dst : c.edge_dst) {
    if (dst >= n) {
      return Status::IoError("graph snapshot: edge target out of range");
    }
  }
  if (c.edge_weight.size() != m || c.in_degree.size() != n ||
      std::accumulate(c.in_degree.begin(), c.in_degree.end(), uint64_t{0}) !=
          m) {
    return Status::IoError("graph snapshot: degree arrays inconsistent "
                           "with the edge count");
  }
  WeightRange range;  // a local, so the loop keeps it in registers
  for (const double w : c.edge_weight) {
    if (!std::isfinite(w) || w < 0.0) {
      return Status::IoError("graph snapshot: edge weight is negative or "
                             "not finite");
    }
    range.Add(w);
  }
  *weights = range;
  if (c.has_attrs &&
      (c.edge_transitions.size() != m || c.edge_grid_distance.size() != m ||
       c.median_pos.size() != n || c.center_pos.size() != n ||
       c.message_count.size() != n || c.distinct_vessels.size() != n ||
       c.median_sog.size() != n || c.median_cog.size() != n)) {
    return Status::IoError("graph snapshot: attribute columns misaligned");
  }
  // The landmark block's explicit count must match its node array (a
  // cheap tamper tripwire ahead of the full column scan).
  if (c.num_landmarks != c.landmark_nodes.size()) {
    return Status::IoError(
        "graph snapshot: landmark count " + std::to_string(c.num_landmarks) +
        " does not match the landmark node array (" +
        std::to_string(c.landmark_nodes.size()) + ")");
  }
  return ValidateLandmarks(n, c.landmark_nodes, c.landmark_from,
                           c.landmark_to);
}

template <typename T>
std::vector<T> Own(std::span<const T> view) {
  return std::vector<T>(view.begin(), view.end());
}

}  // namespace

Result<CompactGraph> ReadGraphSection(SnapshotReader& reader) {
  HABIT_ASSIGN_OR_RETURN(const GraphCols c, ReadGraphCols(reader));
  WeightRange weights;
  HABIT_RETURN_NOT_OK(ValidateGraphCols(c, &weights));
  if (!reader.zero_copy()) {
    CompactGraph g = CompactGraph::FromOwned({
        .node_ids = Own(c.node_ids),
        .row_offsets = Own(c.row_offsets),
        .edge_dst = Own(c.edge_dst),
        .edge_weight = Own(c.edge_weight),
        .in_degree = Own(c.in_degree),
        .edge_transitions = Own(c.edge_transitions),
        .edge_grid_distance = Own(c.edge_grid_distance),
        .median_pos = Own(c.median_pos),
        .center_pos = Own(c.center_pos),
        .message_count = Own(c.message_count),
        .distinct_vessels = Own(c.distinct_vessels),
        .median_sog = Own(c.median_sog),
        .median_cog = Own(c.median_cog),
    }, weights);
    if (!c.landmark_nodes.empty()) {
      HABIT_RETURN_NOT_OK(g.AttachLandmarks({Own(c.landmark_nodes),
                                             Own(c.landmark_from),
                                             Own(c.landmark_to)}));
    }
    return g;
  }
  CompactGraph g;
  g.weight_range_ = weights;
  g.node_ids_ = c.node_ids;
  g.row_offsets_ = c.row_offsets;
  g.edge_dst_ = c.edge_dst;
  g.edge_weight_ = c.edge_weight;
  g.in_degree_ = c.in_degree;
  g.edge_transitions_ = c.edge_transitions;
  g.edge_grid_distance_ = c.edge_grid_distance;
  g.median_pos_ = c.median_pos;
  g.center_pos_ = c.center_pos;
  g.message_count_ = c.message_count;
  g.distinct_vessels_ = c.distinct_vessels;
  g.median_sog_ = c.median_sog;
  g.median_cog_ = c.median_cog;
  g.landmark_nodes_ = c.landmark_nodes;
  g.landmark_from_ = c.landmark_from;
  g.landmark_to_ = c.landmark_to;
  g.AdoptMapped(reader.region());
  return g;
}

Status SaveGraphSnapshot(const CompactGraph& g, const std::string& path) {
  SnapshotWriter writer;
  AppendGraphSection(writer, g);
  return writer.WriteToFile(path, SnapshotKind::kCompactGraph);
}

namespace {

Result<CompactGraph> LoadGraph(const std::string& path, bool zero_copy) {
  HABIT_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      SnapshotReader::Open(path, SnapshotKind::kCompactGraph, zero_copy));
  HABIT_ASSIGN_OR_RETURN(CompactGraph g, ReadGraphSection(reader));
  if (!reader.AtEnd()) {
    return Status::IoError("graph snapshot '" + path +
                           "' has trailing bytes");
  }
  return g;
}

}  // namespace

Result<CompactGraph> LoadGraphSnapshot(const std::string& path) {
  return LoadGraph(path, /*zero_copy=*/false);
}

Result<CompactGraph> LoadGraphSnapshotMapped(const std::string& path) {
  return LoadGraph(path, /*zero_copy=*/true);
}

}  // namespace habit::graph
