// Binary model snapshots: a versioned, checksummed container format that
// turns a trained model into a durable artifact loadable in O(read) — or
// servable in place with zero copies (O(page-in)).
//
// Layout of every snapshot file:
//
//   [magic u32] [version u32] [kind u32] [payload bytes u64]
//   [payload ...]
//   [FNV-1a 64 checksum of payload u64]
//
// The payload is a sequence of scalars and length-prefixed flat arrays.
// Each array's data begins at a 64-byte aligned *file* offset; since mmap
// bases are page-aligned, every column of a mapped snapshot can be viewed
// in place as a correctly aligned std::span with no copy — the zero-copy
// serving path (SplinterDB-style: the kernel page cache is the only
// resident copy). Every embedded graph section ends with the ALT landmark
// block — freeze-time precomputation served through the same
// aligned-array machinery, k = 0 when none was run. Only version 3 is
// read or written; files from builds that wrote versions 1 and 2 are
// refused with an error naming the version.
//
// Both loads map the file and parse it through one reader. The copy load
// verifies the payload checksum first, then copies each validated column
// into owned arrays; the mapped load skips the checksum and serves the
// columns in place. Either way a graph section passes one structural
// validation before it serves a query — sorted node ids, monotonic row
// offsets, in-range edge targets, aligned column lengths, finite
// non-negative edge weights, well-formed landmark columns — with no
// Digraph rebuild and no re-freeze. GTI and PaLMTO snapshots (baselines/)
// reuse the same writer/reader and embed a graph section via
// AppendGraphSection / ReadGraphSection.
//
// The checksum doubles as a cheap model fingerprint (see InspectSnapshot /
// ProbeSnapshot): two snapshots with equal checksums were built from
// identical arrays, which is what the registry-level model cache keys on.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/status.h"
#include "graph/compact_graph.h"
#include "graph/mmap_region.h"

namespace habit::graph {

/// First bytes of every snapshot file ("HBSN", little-endian).
inline constexpr uint32_t kSnapshotMagic = 0x4E534248;
/// Bumped whenever the payload layout of any kind changes. Version 2 added
/// per-array alignment padding, version 3 the landmark block at the end of
/// every graph section. Readers accept only the current version.
inline constexpr uint32_t kSnapshotVersion = 3;
/// Every array's data starts at a file offset that is a multiple of this
/// (covers the strictest column alignment — double/int64/uint64 need 8 —
/// with headroom for future SIMD-friendly columns).
inline constexpr size_t kSnapshotArrayAlignment = 64;
/// magic + version + kind + payload length.
inline constexpr size_t kSnapshotHeaderBytes =
    3 * sizeof(uint32_t) + sizeof(uint64_t);

/// FNV-1a 64 — the repo's one checksum function. Snapshot payloads hash
/// through it, and the router's shard manifest reuses it so a corrupted
/// manifest is rejected by the same primitive that guards snapshots.
uint64_t Fnv1a64(const char* data, size_t n);

/// \brief What a snapshot file contains (stored in the header).
enum class SnapshotKind : uint32_t {
  kCompactGraph = 1,  ///< bare frozen graph (CSR arrays only)
  kGti = 2,           ///< GTI point store + point graph
  kPalmto = 3,        ///< PaLMTO n-gram table
  kHabitModel = 4,    ///< HABIT: build configuration + transition graph
};

/// \brief Accumulates a snapshot payload in memory, then writes
/// header + payload + checksum to disk in one pass.
class SnapshotWriter {
 public:
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }

  /// Length-prefixed bulk dump of a flat array of trivially copyable
  /// elements (the CSR arrays, point stores, count tables). The data is
  /// preceded by zero padding up to the next 64-byte file-offset boundary,
  /// so a mapped reader can view it in place.
  template <typename T>
  void Array(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= kSnapshotArrayAlignment);
    U64(v.size());
    PadToAlignment();
    if (!v.empty()) Raw(v.data(), v.size_bytes());
  }
  template <typename T>
  void Array(const std::vector<T>& v) {
    Array(std::span<const T>(v));
  }

  /// Writes header + payload + checksum to `path` via a sibling ".tmp"
  /// file + rename, so replacing an existing artifact is atomic (a crash
  /// mid-save never destroys the previous good snapshot).
  Status WriteToFile(const std::string& path, SnapshotKind kind) const;

 private:
  void Raw(const void* data, size_t n) {
    payload_.append(static_cast<const char*>(data), n);
  }
  void PadToAlignment() {
    const size_t file_pos = kSnapshotHeaderBytes + payload_.size();
    payload_.append((kSnapshotArrayAlignment -
                     file_pos % kSnapshotArrayAlignment) %
                        kSnapshotArrayAlignment,
                    '\0');
  }

  std::string payload_;
};

/// \brief Validated cursor over a mapped snapshot payload.
///
/// Every reader maps its file. The two loads differ in what they do with
/// the arrays:
///   copy       (zero_copy false) the checksum is verified before any
///              field is parsed, and graph sections copy their columns
///              into owned arrays — the durable, bit-rot-detecting path.
///   zero-copy  (zero_copy true) the checksum is NOT recomputed — hashing
///              would page in every byte, while the zero-copy load itself
///              touches only what validation scans (the statistics columns
///              page in lazily on first query) — and graph sections serve
///              their columns in place. Use the copy load or
///              InspectSnapshot when bit-rot detection matters more than
///              latency.
/// Header, length and per-read bounds are always enforced, and every
/// loader's structural validation runs on both paths, so a truncated or
/// corrupt file fails with a Status, never UB.
class SnapshotReader {
 public:
  /// Maps the file, verifies the header against `expected_kind` (and the
  /// payload checksum unless `zero_copy`), and positions the cursor at the
  /// payload start.
  static Result<SnapshotReader> Open(const std::string& path,
                                     SnapshotKind expected_kind,
                                     bool zero_copy);

  Result<uint32_t> U32() { return Scalar<uint32_t>(); }
  Result<uint64_t> U64() { return Scalar<uint64_t>(); }
  Result<int64_t> I64() { return Scalar<int64_t>(); }
  Result<double> F64() { return Scalar<double>(); }

  /// View of a length-prefixed array written by SnapshotWriter::Array. The
  /// span aliases the mapping, so it stays valid only while region() does.
  /// The data is correctly aligned by construction: the padding is
  /// computed from the file offset, and the mapping is page-aligned.
  template <typename T>
  Status ArrayView(std::span<const T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= kSnapshotArrayAlignment);
    HABIT_ASSIGN_OR_RETURN(const uint64_t count, U64());
    HABIT_RETURN_NOT_OK(SkipArrayPadding());
    if (count > (payload_.size() - pos_) / sizeof(T)) {
      return Status::IoError("snapshot array of " + std::to_string(count) +
                             " elements overruns the payload");
    }
    *out = {reinterpret_cast<const T*>(payload_.data() + pos_),
            static_cast<size_t>(count)};
    pos_ += count * sizeof(T);
    return Status::OK();
  }

  /// Reads a length-prefixed array, copying the data into `out`.
  template <typename T>
  Status Array(std::vector<T>* out) {
    std::span<const T> view;
    HABIT_RETURN_NOT_OK(ArrayView(&view));
    out->assign(view.begin(), view.end());
    return Status::OK();
  }

  /// True when the reader was opened for a zero-copy load: a loader may
  /// then keep ArrayView spans for the model's lifetime (holding
  /// region()); a copy load copies them out instead.
  bool zero_copy() const { return zero_copy_; }

  /// The mapping the payload lives in; consumers that keep ArrayView spans
  /// must hold it as long as the views live.
  const std::shared_ptr<const MmapRegion>& region() const { return region_; }

  /// True when every payload byte has been consumed (loaders check this to
  /// reject trailing garbage).
  bool AtEnd() const { return pos_ == payload_.size(); }

 private:
  template <typename T>
  Result<T> Scalar() {
    if (payload_.size() - pos_ < sizeof(T)) {
      return Status::IoError("snapshot payload truncated");
    }
    T v;
    std::memcpy(&v, payload_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Advances over the alignment padding the writer inserted before array
  /// data (computed against file offsets, so views are aligned in memory,
  /// not just in payload coordinates).
  Status SkipArrayPadding() {
    const size_t file_pos = kSnapshotHeaderBytes + pos_;
    const size_t pad = (kSnapshotArrayAlignment -
                        file_pos % kSnapshotArrayAlignment) %
                       kSnapshotArrayAlignment;
    if (payload_.size() - pos_ < pad) {
      return Status::IoError("snapshot payload truncated inside array "
                             "padding");
    }
    pos_ += pad;
    return Status::OK();
  }

  std::shared_ptr<const MmapRegion> region_;
  std::span<const char> payload_;
  size_t pos_ = 0;
  bool zero_copy_ = false;
};

/// \brief Header + checksum of a snapshot, readable without parsing the
/// payload. The checksum is the model fingerprint the model cache keys on.
struct SnapshotInfo {
  SnapshotKind kind;
  uint32_t version = 0;
  uint64_t payload_bytes = 0;
  uint64_t checksum = 0;
};

/// Validates the file's magic/version/checksum and returns its header.
/// Reads (and hashes) the whole file.
Result<SnapshotInfo> InspectSnapshot(const std::string& path);

/// Reads the header and the *stored* checksum in O(1) I/O — header and
/// trailer only, no payload hash. This is the cache-hit fingerprint path:
/// a warm model lookup must not re-read a multi-GB artifact. Magic,
/// version, and length are still validated; bit rot inside the payload is
/// not detected (use InspectSnapshot for that).
Result<SnapshotInfo> ProbeSnapshot(const std::string& path);

/// Dumps the frozen CSR arrays verbatim (kind kCompactGraph).
Status SaveGraphSnapshot(const CompactGraph& g, const std::string& path);

/// Loads a graph snapshot: checksum, structural validation, then one copy
/// per CSR array into owned storage — no Digraph rebuild or re-freeze. The
/// result is bit-identical to the graph that was saved (same SizeBytes,
/// same weights, same degrees).
Result<CompactGraph> LoadGraphSnapshot(const std::string& path);

/// Zero-copy load: maps the file and serves the CSR arrays in place — no
/// heap copy of the payload, ~half the load-time peak RSS of
/// LoadGraphSnapshot. Only the structural columns, the weights and any
/// landmark columns are paged in up front (validation + id-lookup build);
/// the statistics columns fault in on first query. The same structural validation as
/// LoadGraphSnapshot runs; the payload checksum is not recomputed.
Result<CompactGraph> LoadGraphSnapshotMapped(const std::string& path);

/// Appends / reads a CompactGraph section inside a larger snapshot payload
/// (used by the GTI and HABIT snapshots). The section ends with the ALT
/// landmark block (count + node indices + forward/backward distance
/// columns). ReadGraphSection parses every column as a view, validates
/// them, and then binds the views (zero-copy reader) or copies them into
/// owned arrays (copying reader).
void AppendGraphSection(SnapshotWriter& writer, const CompactGraph& g);
Result<CompactGraph> ReadGraphSection(SnapshotReader& reader);

}  // namespace habit::graph
