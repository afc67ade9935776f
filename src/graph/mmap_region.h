// MmapRegion: RAII ownership of one read-only memory-mapped file. The
// mapped bytes back the zero-copy snapshot serving path — a CompactGraph
// loaded with map=1 holds span views directly into the region instead of
// heap copies of the CSR arrays, so cold start is O(page-in) and the
// kernel page cache is the only resident copy (shared across processes
// serving the same artifact, the way SplinterDB serves its on-disk pages).
//
// The region is immutable (PROT_READ) and private; it stays alive as long
// as any graph holds a shared_ptr to it, so views never dangle.
#pragma once

#include <cstddef>
#include <string>

#include "core/status.h"

namespace habit::graph {

/// \brief Move-only owner of a read-only file mapping.
class MmapRegion {
 public:
  /// Maps the whole file read-only. Fails on platforms without mmap (every
  /// snapshot load reads its file through a mapping) and on empty files
  /// (an empty snapshot is shorter than its header, so it is never
  /// valid).
  static Result<MmapRegion> MapFile(const std::string& path);

  MmapRegion() = default;
  ~MmapRegion();
  MmapRegion(MmapRegion&& other) noexcept { *this = std::move(other); }
  MmapRegion& operator=(MmapRegion&& other) noexcept;
  MmapRegion(const MmapRegion&) = delete;
  MmapRegion& operator=(const MmapRegion&) = delete;

  const char* data() const { return static_cast<const char*>(addr_); }
  size_t size() const { return size_; }
  bool valid() const { return addr_ != nullptr; }

 private:
  void* addr_ = nullptr;
  size_t size_ = 0;
};

}  // namespace habit::graph
