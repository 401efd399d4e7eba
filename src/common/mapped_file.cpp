#include "common/mapped_file.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <utility>

namespace osn {

MappedFile::~MappedFile() {
  if (data_ != nullptr)
    ::munmap(const_cast<std::uint8_t*>(data_), static_cast<std::size_t>(size_));
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr)
      ::munmap(const_cast<std::uint8_t*>(data_), static_cast<std::size_t>(size_));
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

MappedFile MappedFile::map(int fd, std::uint64_t size) {
  MappedFile out;
  if (size == 0 || size > SIZE_MAX) return out;
  void* p = ::mmap(nullptr, static_cast<std::size_t>(size), PROT_READ, MAP_PRIVATE, fd, 0);
  if (p == MAP_FAILED) return out;
  out.data_ = static_cast<const std::uint8_t*>(p);
  out.size_ = size;
  return out;
}

void prefault_writable(void* data, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_POPULATE_WRITE)
  static const std::uintptr_t page =
      static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto addr = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t lo = (addr + page - 1) & ~(page - 1);
  const std::uintptr_t hi = (addr + bytes) & ~(page - 1);
  if (hi <= lo) return;
  void* base = reinterpret_cast<void*>(lo);
  const std::size_t len = static_cast<std::size_t>(hi - lo);
  (void)::madvise(base, len, MADV_HUGEPAGE);
  (void)::madvise(base, len, MADV_POPULATE_WRITE);
#else
  (void)data;
  (void)bytes;
#endif
}

void prefault_readable(const void* data, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_POPULATE_READ)
  static const std::uintptr_t page =
      static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto addr = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t lo = addr & ~(page - 1);
  const std::uintptr_t hi = (addr + bytes + page - 1) & ~(page - 1);
  (void)::madvise(reinterpret_cast<void*>(lo), static_cast<std::size_t>(hi - lo),
                  MADV_POPULATE_READ);
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace osn
