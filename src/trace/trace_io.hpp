// Compact binary serialization of traces ("OSNT" format).
//
// LTTng persists CTF; we persist an analogous compact stream: LEB128 varints
// with per-CPU delta-encoded timestamps, which shrinks the dominant field
// (monotonic nanosecond timestamps) to 1-3 bytes per event. The format is the
// bridge between a tracing run and later offline analysis, exactly the
// pre-processing split the paper describes (instrument statically, analyze
// offline).
//
// One layout, chunk-indexed (version 3): the trace is a sequence of record
// chunks in global merged order, each record tagged with its cpu. Every chunk
// is independently decodable (per-CPU timestamp deltas reset at each chunk
// boundary) and carries a CRC-32 of its payload; the file ends with a footer
// index (file offset, record count, time range, cpu mask per chunk) plus a
// fixed-width trailer locating it. The index lets the reader decode chunks in
// parallel, serve time-window queries without decoding the whole file, and
// verify integrity chunk by chunk; the trailer's truncation flag marks files
// whose writer died before finish() (best-effort sentinel written by the
// destructor). The writer never needs the whole trace in memory, so the live
// drain and the offline path write the same bytes.
//
//    Byte layout:
//      varint magic 'OSNT', varint version=3
//      chunk*:  varint record_count (>0), varint payload_len,
//               payload = record_count x [cpu, ts_delta, pid, event, arg]
//               varints (ts_delta per CPU, reset each chunk: a CPU's first
//               record in a chunk carries its absolute timestamp),
//               u32le crc32(payload)
//      varint 0 (terminator)
//      footer:  meta + task table + drain counters  (absent when truncated)
//      index:   varint n_chunks, then per chunk [offset, record_count,
//               payload_len, t_first, t_last - t_first, cpu_mask] varints,
//               u32le crc32(index bytes), then the optional pre-aggregate
//               block (osnt_layout.hpp)
//      trailer: u64le index_offset, u64le footer_offset (0 when truncated),
//               u32le flags (bit 0 = truncated), u32le magic 'OSN3'
//
// Malformed input throws trace::TraceReadError (see trace_error.hpp) —
// corrupt storage is an input condition, not a programming error. OsntReader
// (osnt_reader.hpp) is the one reader (random access, windowed, parallel).
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/varint.hpp"
#include "trace/chunk_aggregate.hpp"
#include "trace/trace_error.hpp"
#include "trace/trace_model.hpp"

namespace osn::trace {

/// Appends a LEB128 varint to `out` (common/varint.hpp's encoder).
inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  varint_append(out, v);
}

[[noreturn]] void throw_varint_error(const char* what, std::size_t pos);

/// Reads a LEB128 varint at `pos`, advancing it. Throws TraceReadError on
/// truncation or an over-long encoding. Inline: the decode hot loop reads
/// five varints per record, and the call overhead dominates otherwise (the
/// common case is a 1-2 byte varint).
inline std::uint64_t get_varint(const std::uint8_t* data, std::size_t size,
                                std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos >= size) throw_varint_error("truncated varint", pos);
    const std::uint8_t byte = data[pos++];
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift >= 64) throw_varint_error("varint too long", pos);
  }
  return v;
}

inline std::uint64_t get_varint(const std::vector<std::uint8_t>& buf, std::size_t& pos) {
  return get_varint(buf.data(), buf.size(), pos);
}

/// Checked narrowing for decoded fields: a varint that does not fit its
/// destination type is malformed input, so this throws TraceReadError (with
/// the current decode position) instead of silently truncating.
template <class T>
T narrow(std::uint64_t v, const char* field, std::size_t pos) {
  static_assert(std::is_unsigned_v<T> && sizeof(T) <= sizeof(std::uint64_t));
  if (v > std::numeric_limits<T>::max())
    throw TraceReadError(std::string(field) + " does not fit its field", pos);
  return static_cast<T>(v);
}

/// File convenience wrappers. write_trace_file replays the model in merged
/// order (model.for_each_merged) through an OsntStreamWriter (default chunk
/// size) and returns false on any open or write failure; read_trace_file
/// throws TraceReadError on open/parse failure. Buffers decode through
/// OsntReader directly.
bool write_trace_file(const TraceModel& model, const std::string& path);
TraceModel read_trace_file(const std::string& path);

/// Incremental OSNT writer.
///
/// Feed records in global merged order via append() — per-CPU subsequences
/// must stay time-ordered (the consumer daemon's emit order satisfies both).
/// Records are buffered into chunks of `chunk_records` and flushed to disk as
/// each chunk fills, so memory stays O(chunk) regardless of trace length.
/// finish() writes the terminator, metadata footer and chunk index. A writer
/// destroyed without finish() flushes the open chunk and writes a
/// best-effort index + trailer flagged "truncated", so the reader can still
/// recover every flushed record and report the truncation instead of
/// choking on an unreadable file.
class OsntStreamWriter {
 public:
  explicit OsntStreamWriter(const std::string& path, std::size_t chunk_records = 8192);
  ~OsntStreamWriter();

  OsntStreamWriter(const OsntStreamWriter&) = delete;
  OsntStreamWriter& operator=(const OsntStreamWriter&) = delete;

  /// False when the output file could not be opened or a write failed.
  bool ok() const { return !failed_; }

  /// Attaches a pre-aggregate builder (call before the first append). Every
  /// appended record is forwarded to it, per-chunk aggregates are collected
  /// at each flush, and finish() stores the block next to the chunk index —
  /// unless the aggregator vetoes (take_tail returns nullopt) or the writer
  /// dies before finish() (truncated files carry no aggregates).
  void set_aggregator(std::unique_ptr<ChunkAggregator> agg);

  void append(const tracebuf::EventRecord& rec);

  /// Flushes the final chunk, writes footer/index/trailer and closes the
  /// file. Returns ok(). Idempotent.
  bool finish(const TraceMeta& meta, const std::map<Pid, TaskInfo>& tasks);

  std::uint64_t records_written() const { return records_; }

  /// Bytes emitted so far (header + flushed chunks; the open chunk's buffer
  /// is not counted until it flushes). After finish() this is the file size.
  /// Segment-store rotation uses it as the size trigger.
  std::uint64_t bytes_written() const { return file_pos_; }

 private:
  /// Per-chunk index bookkeeping (mirrors trace::ChunkInfo on disk).
  struct ChunkEntry {
    std::uint64_t offset = 0;
    std::uint64_t records = 0;
    std::uint64_t payload_len = 0;
    TimeNs t_first = 0;
    TimeNs t_last = 0;
    std::uint64_t cpu_mask = 0;
  };

  /// Per-cpu encode state.
  struct CpuCursor {
    TimeNs last_ts = 0;     ///< previous timestamp: order check and delta base
    bool in_chunk = false;  ///< the cpu has appeared in the open chunk
  };

  void write_bytes(const void* data, std::size_t n);
  void flush_chunk();
  void write_index_and_trailer(std::uint64_t footer_offset, bool with_aggregates);

  std::FILE* file_ = nullptr;
  bool failed_ = false;
  bool finished_ = false;
  std::size_t chunk_records_;
  std::size_t in_chunk_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t file_pos_ = 0;
  std::vector<std::uint8_t> chunk_buf_;
  std::vector<CpuCursor> cpus_;    ///< by cpu
  ChunkEntry cur_;                 ///< stats of the open chunk
  std::vector<ChunkEntry> index_;  ///< flushed chunks
  std::unique_ptr<ChunkAggregator> aggregator_;  ///< optional pre-aggregate builder
  std::vector<std::uint8_t> agg_blobs_;  ///< serialized per-chunk aggregates
  std::size_t agg_chunks_ = 0;           ///< blobs collected (== index_.size() when healthy)
};

}  // namespace osn::trace
