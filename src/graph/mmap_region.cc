#include "graph/mmap_region.h"

#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define HABIT_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace habit::graph {

MmapRegion& MmapRegion::operator=(MmapRegion&& other) noexcept {
  if (this != &other) {
#if HABIT_HAVE_MMAP
    if (addr_ != nullptr) ::munmap(addr_, size_);
#endif
    addr_ = std::exchange(other.addr_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

MmapRegion::~MmapRegion() {
#if HABIT_HAVE_MMAP
  if (addr_ != nullptr) ::munmap(addr_, size_);
#endif
}

Result<MmapRegion> MmapRegion::MapFile(const std::string& path) {
#if HABIT_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path + "' for mapping");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IoError("cannot stat '" + path + "'");
  }
  if (st.st_size == 0) {
    ::close(fd);
    return Status::IoError("'" + path + "' is empty, nothing to map");
  }
  void* addr = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                      MAP_PRIVATE, fd, 0);
  // The mapping holds its own reference to the file; the descriptor is no
  // longer needed either way.
  ::close(fd);
  if (addr == MAP_FAILED) {
    return Status::IoError("cannot map '" + path + "'");
  }
  MmapRegion region;
  region.addr_ = addr;
  region.size_ = static_cast<size_t>(st.st_size);
  return region;
#else
  return Status::IoError("file mapping is not available on this platform");
#endif
}

}  // namespace habit::graph
