// OSNT reader: random access, windowed and parallel decode, per-chunk
// integrity verification.
//
// The offline half of the paper's pipeline must scale past toy traces: a
// long-term monitoring run produces files far larger than RAM, analyses often
// want a time slice rather than the whole run, and cold storage rots. The
// chunk-indexed layout (trace_io.hpp) makes all three cheap, and OsntReader
// is its consumer:
//  * the footer index is located from the fixed trailer at EOF, so opening a
//    file costs O(index), not O(trace);
//  * window_chunk_range() binary-searches the index for the chunks
//    overlapping a time window and read_chunks() decodes only those (the
//    query engine then clips them with window_of());
//  * read_all() and read_chunks() build their model one way,
//    at any worker count: a count step walks each chunk (on a
//    common::ThreadPool when given one — chunks are independently decodable
//    by construction, per-chunk delta reset) for its per-CPU record counts
//    and time span, one serial pass in chunk order checks cross-chunk order
//    and gives each chunk its slots in the per-CPU streams, and a place step
//    decodes every record straight into its slot. The result is
//    bit-identical at any worker count;
//  * verify() checks every chunk's CRC-32 and structure without building a
//    model, and reports truncation (writer died before finish()) and index
//    damage (trailer/index unreadable -> index rebuilt by a forward scan,
//    salvaging every chunk up to the first corrupt byte);
//  * index_summary() exposes the pre-aggregate block (chunk_aggregate.hpp)
//    when the file carries an intact one, so summary queries can skip record
//    decode entirely.
//
// I/O modes: file-backed readers mmap the file read-only by default and
// decode straight out of the mapping (zero-copy); when mmap fails — or
// IoMode::kPread is requested — every access falls back to positioned pread
// into a caller-local scratch buffer, which stays fully thread-safe and
// needs O(chunk) memory. Buffer-backed readers (owned or borrowed) are
// always zero-copy.
//
// Only version 3 is read; any other version (the unindexed v1/v2 layouts of
// earlier builds included) is rejected with TraceReadError("unsupported OSNT
// version"), like every other input error.
//
// Thread safety: after construction, read_all / read_chunks / for_each /
// verify may be called concurrently from multiple threads on one reader (the
// query server's workers share a reader per catalog entry). Decoding is
// naturally concurrent — chunks are read from the immutable mapping (or with
// pread into local scratch) and all index state is immutable after open —
// and only the truncated-file metadata refinement serializes on an internal
// mutex.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/mapped_file.hpp"
#include "common/thread_pool.hpp"
#include "trace/chunk_aggregate.hpp"
#include "trace/trace_error.hpp"
#include "trace/trace_model.hpp"

namespace osn::trace {

/// One entry of the footer index.
struct ChunkInfo {
  std::uint64_t offset = 0;       ///< file offset of the chunk's count varint
  std::uint64_t records = 0;      ///< records in the chunk (> 0)
  std::uint64_t payload_len = 0;  ///< payload bytes (between header varints and CRC)
  TimeNs t_first = 0;             ///< timestamp of the first record
  TimeNs t_last = 0;              ///< timestamp of the last record
  std::uint64_t cpu_mask = 0;     ///< bit c: cpu c present (c < 63); bit 63: any cpu >= 63
  friend bool operator==(const ChunkInfo&, const ChunkInfo&) = default;
};

struct ChunkIssue {
  std::int64_t chunk = TraceReadError::kNoChunk;  ///< kNoChunk for file-level issues
  std::uint64_t offset = 0;
  std::string problem;
};

/// Result of verify(): structural + integrity findings, no model built.
struct VerifyReport {
  bool truncated = false;        ///< truncation sentinel (writer died before finish())
  bool index_recovered = false;  ///< trailer/index damaged; rebuilt by forward scan
  std::size_t chunks = 0;        ///< chunks checked
  std::uint64_t records = 0;     ///< records covered by intact chunks
  std::vector<ChunkIssue> issues;

  /// No corruption found. Truncation/recovery are reported separately: a
  /// cleanly-truncated file is readable, just incomplete.
  bool intact() const { return issues.empty(); }
  bool clean() const { return intact() && !truncated && !index_recovered; }
};

class OsntReader {
 public:
  /// Requested I/O strategy for file-backed readers.
  enum class IoMode {
    kAuto,   ///< mmap the file; silently fall back to pread when mmap fails
    kPread,  ///< always use positioned reads (no mapping)
  };
  /// The strategy actually in effect after construction.
  enum class IoBackend { kMmap, kPread, kBuffer };

  /// Opens and indexes a trace file. Throws TraceReadError when the file
  /// cannot be opened, is not OSNT version 3, or its header is unusable (a
  /// damaged index is rebuilt by scan instead).
  explicit OsntReader(const std::string& path, IoMode mode = IoMode::kAuto);
  /// In-memory variant over a serialized buffer (tests, network payloads).
  explicit OsntReader(std::vector<std::uint8_t> bytes);
  /// Borrowed-buffer variant: decodes out of caller-owned memory without
  /// copying. The buffer must outlive the reader.
  OsntReader(const std::uint8_t* data, std::size_t size);
  ~OsntReader();

  OsntReader(const OsntReader&) = delete;
  OsntReader& operator=(const OsntReader&) = delete;

  bool truncated() const { return truncated_; }
  bool index_recovered() const { return index_recovered_; }
  IoBackend io_backend() const { return backend_; }
  /// Chunk index (rebuilt by scan when damaged); empty for a file without
  /// records.
  const std::vector<ChunkInfo>& chunks() const { return chunks_; }
  std::uint64_t indexed_records() const;

  /// The file's pre-aggregate block, when present and intact (files written
  /// with a ChunkAggregator). nullopt for files written without an
  /// aggregator, truncated files, recovered indexes, and files whose
  /// aggregate block failed its CRC or structural checks (the damage is
  /// reported through verify()) — callers fall back to record decode.
  const std::optional<IndexSummary>& index_summary() const { return index_summary_; }

  /// Trace metadata/tasks from the footer. For truncated files the footer
  /// is missing: meta is synthesized best-effort from the chunk index
  /// (workload "(truncated)", window covering the flushed records) and the
  /// task table is empty.
  const TraceMeta& meta() const { return meta_; }
  const std::map<Pid, TaskInfo>& tasks() const { return tasks_; }

  /// Decodes the whole trace. With a pool, chunks decode in parallel; the
  /// result is bit-identical at any worker count.
  TraceModel read_all(ThreadPool* pool = nullptr);

  /// The contiguous [first, last) range of chunks whose index time span
  /// overlaps [t0, t1) (binary search on t_last): every chunk that can hold
  /// a record with t0 <= timestamp < t1. Returns (0, 0) for empty windows
  /// and files without chunks.
  std::pair<std::size_t, std::size_t> window_chunk_range(TimeNs t0, TimeNs t1) const;

  /// Decodes an explicit set of chunks (ids strictly increasing) into a
  /// model carrying the full-trace meta (no window clamping); read_all is
  /// read_chunks of every id. Throws TraceReadError for out-of-range or
  /// unordered ids.
  /// The query engine reads a window as
  /// window_of(read_chunks(window_chunk_range(t0, t1)), t0, t1) and caches
  /// the decoded range. It also passes mask-pruned subsets: dropping chunks
  /// whose cpu_mask lacks a cpu leaves that cpu's stream untouched.
  TraceModel read_chunks(const std::vector<std::size_t>& ids, ThreadPool* pool = nullptr);

  /// Streams every record in global merged order, chunk at a time — O(chunk)
  /// memory.
  void for_each(const std::function<void(const tracebuf::EventRecord&)>& fn);

  /// Integrity check: per-chunk CRC + structural decode + cross-chunk
  /// ordering, footer parse. Never throws for in-file corruption — findings
  /// land in the report.
  VerifyReport verify();

 private:
  void open_and_index();
  bool parse_trailer_and_index();
  void parse_aggregate_block(const std::uint8_t* idx, std::size_t size, std::size_t pos,
                             std::size_t n_chunks, std::uint64_t base_offset);
  void parse_footer(std::uint64_t footer_offset, std::uint64_t end);
  void recover_by_scan();
  void synthesize_truncated_meta();
  /// Largest cpu id + 1 the decode accepts for this file.
  std::size_t decode_cpu_bound() const;
  /// A view of [offset, offset+len): a pointer into the mapping/buffer when
  /// one exists (scratch untouched), otherwise `scratch` is filled by pread
  /// and its data() returned. Thread-safe; the view is valid as long as both
  /// the reader and `scratch` live.
  const std::uint8_t* view_at(std::uint64_t offset, std::uint64_t len,
                              std::vector<std::uint8_t>& scratch) const;
  /// Chunk `i`'s payload after checking its header against the index and
  /// its CRC; `payload_off` receives the payload's file offset. The view
  /// lives as long as `scratch` (see view_at).
  const std::uint8_t* checked_payload(std::size_t i, std::vector<std::uint8_t>& scratch,
                                      std::uint64_t& payload_off) const;
  /// Decodes chunk `i` (CRC-verified) into records in stored (merged) order.
  std::vector<tracebuf::EventRecord> decode_chunk(std::size_t i) const;
  /// The one model builder behind read_all/read_chunks: count
  /// (per chunk, pooled), order and slot (serial, chunk order), place (per
  /// chunk, pooled). Each record is decoded once, into its final slot; the
  /// lowest failing chunk's error is thrown at any worker count.
  TraceModel build_model(const std::vector<std::size_t>& ids, ThreadPool* pool);

  std::FILE* file_ = nullptr;            ///< file-backed mode
  MappedFile map_;                       ///< file-backed mode with mmap
  std::vector<std::uint8_t> bytes_;      ///< owned in-memory mode
  /// Zero-copy base pointer (mapping, owned buffer, or borrowed buffer);
  /// nullptr means every access goes through pread.
  const std::uint8_t* mem_ = nullptr;
  std::uint64_t size_ = 0;
  std::uint64_t data_begin_ = 0;         ///< first byte after the header varints
  IoBackend backend_ = IoBackend::kBuffer;

  bool truncated_ = false;
  bool index_recovered_ = false;
  /// Problems found while opening (index recovery, footer damage, a rejected
  /// aggregate block); prepended to every verify() report.
  std::vector<ChunkIssue> open_issues_;
  std::vector<ChunkInfo> chunks_;
  std::optional<IndexSummary> index_summary_;
  TraceMeta meta_;
  std::map<Pid, TaskInfo> tasks_;
  /// Serializes the only mutable post-open state: the truncated-file meta_
  /// refinement in build_model(). The decode hot path
  /// (chunk index, mapping/pread) takes this lock only to snapshot meta_.
  mutable std::mutex mutex_;
};

/// Windowed copy of a model: streams clipped to [t0, t1), meta clamped.
/// Kernel entry/exit frames cut by the edges are dropped (exits whose entry
/// predates the window, entries whose exit postdates it; point events and
/// sched/app marks stay), so the result passes TraceModel's pairing
/// validation. The query engine applies it to the decoded chunks of
/// OsntReader::window_chunk_range (query::Engine::model).
TraceModel window_of(const TraceModel& model, TimeNs t0, TimeNs t1);

/// The cpu predicate (the planner's and osn-analyze's --cpu): one CPU's
/// stream kept, the rest emptied. Meta and tasks are untouched, so durations
/// and frequency normalization stay those of the whole node.
TraceModel restrict_to_cpu(const TraceModel& model, CpuId cpu);

}  // namespace osn::trace
