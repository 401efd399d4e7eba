// TraceCatalog: the directory of .osnt files a server answers queries about.
//
// The catalog maps names (file stem, "ftq" for ftq.osnt) to validated
// readers. A refresh() stats the directory: new files are probed by opening
// them (the v3 footer index makes that O(index), not O(trace)), files whose
// size or mtime changed are re-opened, vanished files are dropped, and
// unreadable files stay listed with their error so clients can see *why* a
// trace is unusable instead of it silently missing.
//
// open() hands out a Lease: a shared_ptr to the (thread-safe) OsntReader
// plus the entry's identity stamp. Readers are shared across concurrent
// requests — OsntReader supports that by contract — and a Lease keeps its
// reader alive even if a refresh replaces the catalog entry mid-request.
// The identity stamp (name|size|mtime) is the cache-key prefix: when a file
// is rewritten, its stamp changes and every cached result for the old bytes
// is simply never looked up again.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/types.hpp"
#include "trace/osnt_reader.hpp"

namespace osn::serve {

/// One catalog entry; a snapshot of a trace file's identity and headline
/// metadata (everything `list` reports without decoding any chunks).
struct TraceEntry {
  std::string name;           ///< file stem ("ftq" for ftq.osnt)
  std::string path;
  std::uint64_t size = 0;     ///< bytes on disk at probe time
  std::uint64_t mtime_ns = 0; ///< mtime at probe time
  std::string error;          ///< non-empty: file present but unusable

  // Valid only when error is empty.
  bool truncated = false;
  std::uint64_t records = 0;  ///< indexed records
  std::size_t chunks = 0;
  std::string workload;
  TimeNs start_ns = 0;
  TimeNs end_ns = 0;
  std::uint16_t n_cpus = 0;

  bool usable() const { return error.empty(); }
  /// Identity stamp: changes whenever the file's bytes may have changed.
  std::string id() const;
};

/// A borrowed reader: keeps the OsntReader alive for the request's duration
/// even if the catalog refreshes underneath it.
struct Lease {
  std::shared_ptr<trace::OsntReader> reader;  ///< null when unusable/unknown
  TraceEntry entry;
  std::string error;  ///< why reader is null ("unknown trace" / open error)
};

class TraceCatalog {
 public:
  explicit TraceCatalog(std::string dir);

  /// Re-scans the directory: probes new/changed files, drops vanished ones.
  /// Never throws for per-file problems — they land in the entry's error.
  void refresh();

  /// Snapshot of all entries, name-sorted.
  std::vector<TraceEntry> list() const;

  /// Leases the named trace, refreshing the entry first if the file's
  /// size/mtime no longer match the cached probe.
  Lease open(const std::string& name);

  const std::string& dir() const { return dir_; }

 private:
  struct Slot {
    TraceEntry entry;
    std::shared_ptr<trace::OsntReader> reader;  ///< null when unusable
  };

  /// Probes one file (opens + indexes it); returns a fully-populated slot.
  static Slot probe(const std::string& name, const std::string& path);

  std::string dir_;
  mutable std::mutex mutex_;
  std::map<std::string, Slot> slots_ OSN_GUARDED_BY(mutex_);
};

}  // namespace osn::serve
