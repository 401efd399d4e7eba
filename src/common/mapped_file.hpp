// Read-only memory mapping of a file (RAII over mmap), and the page-population
// hints the decode and analysis apply to the large buffers they fill.
//
// The OSNT v3 reader's zero-copy mode serves chunk payloads as pointers into
// the mapping instead of pread-ing them into fresh buffers; this wrapper owns
// the mapping's lifetime. Mapping is strictly best-effort: callers fall back
// to positioned reads when map() yields an invalid object (empty file,
// exhausted address space, a file system without mmap support).
//
// Safety note: reading through the mapping after the file shrinks under us
// would raise SIGBUS. The trace catalog publishes files by rename and never
// truncates in place (serve_helpers.hpp documents the contract), so a mapped
// inode's size is stable for the mapping's lifetime.
#pragma once

#include <cstddef>
#include <cstdint>

namespace osn {

class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `size` bytes of `fd` read-only from offset 0. Returns an invalid
  /// (default) object on failure — including size == 0, which mmap rejects.
  static MappedFile map(int fd, std::uint64_t size);

  bool valid() const { return data_ != nullptr; }
  const std::uint8_t* data() const { return data_; }
  std::uint64_t size() const { return size_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::uint64_t size_ = 0;
};

/// Pre-faults a freshly reserved output buffer in one batched kernel pass
/// (MADV_POPULATE_WRITE, after MADV_HUGEPAGE) instead of one page trap per
/// 4 KiB as it is filled. Purely advisory: on an old kernel or off Linux the
/// buffer is demand-faulted as usual.
void prefault_writable(void* data, std::size_t bytes);

/// Read-side counterpart for a private file mapping (MADV_POPULATE_READ:
/// write-populating a MAP_PRIVATE mapping would COW-copy every page).
/// Advisory, like prefault_writable.
void prefault_readable(const void* data, std::size_t bytes);

}  // namespace osn
