#include "serve/catalog.hpp"

#include <sys/stat.h>

#include <filesystem>
#include <utility>

namespace osn::serve {

namespace fs = std::filesystem;

namespace {

/// Size + mtime of a file; false when it cannot be stat'ed.
bool stat_file(const std::string& path, std::uint64_t& size, std::uint64_t& mtime_ns) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return false;
  size = static_cast<std::uint64_t>(st.st_size);
  mtime_ns = static_cast<std::uint64_t>(st.st_mtim.tv_sec) * kNsPerSec +
             static_cast<std::uint64_t>(st.st_mtim.tv_nsec);
  return true;
}

}  // namespace

std::string TraceEntry::id() const {
  return name + "|" + std::to_string(size) + "|" + std::to_string(mtime_ns);
}

TraceCatalog::TraceCatalog(std::string dir) : dir_(std::move(dir)) { refresh(); }

TraceCatalog::Slot TraceCatalog::probe(const std::string& name, const std::string& path) {
  Slot slot;
  slot.entry.name = name;
  slot.entry.path = path;
  if (!stat_file(path, slot.entry.size, slot.entry.mtime_ns)) {
    slot.entry.error = "cannot stat file";
    return slot;
  }
  try {
    auto reader = std::make_shared<trace::OsntReader>(path);
    slot.entry.truncated = reader->truncated();
    slot.entry.records = reader->indexed_records();
    slot.entry.chunks = reader->chunks().size();
    slot.entry.workload = reader->meta().workload;
    slot.entry.start_ns = reader->meta().start_ns;
    slot.entry.end_ns = reader->meta().end_ns;
    slot.entry.n_cpus = reader->meta().n_cpus;
    slot.reader = std::move(reader);
  } catch (const trace::TraceReadError& e) {
    slot.entry.error = e.what();
  }
  return slot;
}

void TraceCatalog::refresh() {
  // Scan outside the lock (probing opens files), swap in under it.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> present;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    if (ec) break;
    if (!de.is_regular_file(ec)) continue;
    const fs::path& p = de.path();
    if (p.extension() != ".osnt") continue;
    std::uint64_t size = 0, mtime_ns = 0;
    if (!stat_file(p.string(), size, mtime_ns)) continue;
    present[p.stem().string()] = {size, mtime_ns};
  }

  // Decide which names need (re-)probing against the current snapshot.
  std::vector<std::string> to_probe;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, stamp] : present) {
      const auto it = slots_.find(name);
      if (it == slots_.end() || it->second.entry.size != stamp.first ||
          it->second.entry.mtime_ns != stamp.second) {
        to_probe.push_back(name);
      }
    }
    for (auto it = slots_.begin(); it != slots_.end();) {
      if (present.count(it->first) == 0) {
        it = slots_.erase(it);
      } else {
        ++it;
      }
    }
  }

  for (const std::string& name : to_probe) {
    Slot slot = probe(name, (fs::path(dir_) / (name + ".osnt")).string());
    std::lock_guard<std::mutex> lock(mutex_);
    slots_[name] = std::move(slot);
  }
}

std::vector<TraceEntry> TraceCatalog::list() const {
  std::vector<TraceEntry> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) out.push_back(slot.entry);
  return out;
}

Lease TraceCatalog::open(const std::string& name) {
  Lease lease;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = slots_.find(name);
    if (it != slots_.end()) {
      // Serve from the snapshot if the file is unchanged on disk.
      std::uint64_t size = 0, mtime_ns = 0;
      if (stat_file(it->second.entry.path, size, mtime_ns) &&
          size == it->second.entry.size && mtime_ns == it->second.entry.mtime_ns) {
        lease.reader = it->second.reader;
        lease.entry = it->second.entry;
        if (!lease.reader) lease.error = lease.entry.error;
        return lease;
      }
    }
  }

  // Unknown or stale: try the file directly (it may have just appeared).
  const std::string path = (fs::path(dir_) / (name + ".osnt")).string();
  std::uint64_t size = 0, mtime_ns = 0;
  if (name.empty() || name.find('/') != std::string::npos ||
      name.find("..") != std::string::npos || !stat_file(path, size, mtime_ns)) {
    lease.error = "unknown trace '" + name + "'";
    return lease;
  }
  Slot slot = probe(name, path);
  lease.reader = slot.reader;
  lease.entry = slot.entry;
  if (!lease.reader) lease.error = slot.entry.error;
  std::lock_guard<std::mutex> lock(mutex_);
  slots_[name] = std::move(slot);
  return lease;
}

}  // namespace osn::serve
