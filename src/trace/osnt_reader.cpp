#include "trace/osnt_reader.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <exception>
#include <limits>
#include <span>

#include "common/crc32.hpp"
#include "common/mapped_file.hpp"
#include "trace/osnt_layout.hpp"
#include "trace/schema.hpp"
#include "trace/trace_io.hpp"

namespace osn::trace {

namespace {

/// Largest cpu id + 1 the format accepts.
constexpr std::uint64_t kMaxCpus = 65536;

/// Cap on the footer region a recovery scan will materialize in pread mode.
/// Real footers (metadata + task table + drain counters) are tiny; the cap
/// keeps a hostile terminator-followed-by-gigabytes file from forcing a
/// whole-tail allocation. Anything larger is treated as damaged.
constexpr std::uint64_t kMaxFooterBytes = 64ull << 20;

/// Walks every record of a v3 chunk payload, calling
/// `emit(cpu, delta, pid64, event64, arg, pos)` per record. The walker owns
/// the wire-format concerns — varint decode, the cpu bound, structural
/// errors — while the emitter owns what to do with the fields.
///
/// `cpu_bound` caps the cpu id (exclusive): meta.n_cpus for intact files,
/// kMaxCpus when no trustworthy metadata exists (truncated files, recovery
/// scans). Bounding here is what keeps a hostile varint cpu (say 2^32) from
/// driving a multi-GiB resize of per-cpu state — it becomes a
/// TraceReadError instead. `file_offset` is the payload's position in the
/// file, for error reporting.
template <class Emit>
void walk_payload(const std::uint8_t* data, std::size_t len, std::uint64_t n_records,
                  std::uint64_t file_offset, std::int64_t chunk_id,
                  std::size_t cpu_bound, Emit&& emit) {
  if (n_records > len / 5 + 1)
    throw TraceReadError("implausible chunk record count", file_offset, chunk_id);
  std::size_t pos = 0;
  // Fast-path region: while the cursor is at least one worst-case record
  // (5 fields x 10-byte varint) from the end, field decodes cannot run off
  // the payload, so the per-byte bounds checks of get_varint are pure
  // overhead. The tail (and any record that strays past `safe`) takes the
  // fully checked path; both report identical errors.
  const std::size_t safe =
      len >= 5 * kMaxVarintBytes ? len - 5 * kMaxVarintBytes : 0;
  const auto fast_varint = [&](std::size_t& p) {
    std::uint64_t v = data[p++];
    if ((v & 0x80) == 0) return v;  // hot: most fields are one byte
    v &= 0x7f;
    int shift = 7;
    while (true) {
      const std::uint8_t byte = data[p++];
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
      if (shift >= 64) throw_varint_error("varint too long", p);
    }
  };
  try {
    for (std::uint64_t i = 0; i < n_records; ++i) {
      std::uint64_t cpu64, delta, pid64, event64, arg;
      if (pos <= safe) {
        cpu64 = fast_varint(pos);
        delta = fast_varint(pos);
        pid64 = fast_varint(pos);
        event64 = fast_varint(pos);
        arg = fast_varint(pos);
      } else {
        cpu64 = get_varint(data, len, pos);
        delta = get_varint(data, len, pos);
        pid64 = get_varint(data, len, pos);
        event64 = get_varint(data, len, pos);
        arg = get_varint(data, len, pos);
      }
      if (cpu64 >= cpu_bound)
        throw TraceReadError("chunk record cpu out of range", file_offset + pos, chunk_id);
      emit(static_cast<std::size_t>(cpu64), delta, pid64, event64, arg, pos);
    }
  } catch (const TraceReadError& e) {
    if (e.chunk_id() != TraceReadError::kNoChunk) throw;
    // Re-anchor varint-level errors to the file offset and chunk.
    throw TraceReadError(e.what(), file_offset + pos, chunk_id);
  }
  if (pos != len)
    throw TraceReadError("chunk payload length mismatch", file_offset + pos, chunk_id);
}

/// Per-cpu state size implied by an index cpu mask: exact when every cpu is
/// < 63; the bit-63 overflow case (and an unknown mask, 0) sizes nothing and
/// the state grows to the cpus actually met.
std::size_t mask_width(std::uint64_t cpu_mask) {
  return (cpu_mask >> 63) != 0 ? 0 : static_cast<std::size_t>(std::bit_width(cpu_mask));
}

/// Decodes one v3 chunk payload into records in stored (merged) order.
/// `cpu_mask_hint` (the index's cpu mask, 0 when unknown) pre-sizes the
/// per-cpu delta state so the record loop allocates nothing.
std::vector<tracebuf::EventRecord> decode_payload(const std::uint8_t* data,
                                                  std::size_t len,
                                                  std::uint64_t n_records,
                                                  std::uint64_t file_offset,
                                                  std::int64_t chunk_id,
                                                  std::size_t cpu_bound,
                                                  std::uint64_t cpu_mask_hint) {
  std::vector<tracebuf::EventRecord> out;
  if (n_records <= len / 5 + 1) out.reserve(static_cast<std::size_t>(n_records));
  // A chunk's first record for a CPU carries its absolute timestamp, i.e. a
  // delta from zero — so zero-initialized prev state makes the first-record
  // case fall out of the same `prev + delta` arithmetic as every other
  // record. No per-cpu "seen" bookkeeping in the hot loop.
  std::vector<TimeNs> prev_ts(std::min(mask_width(cpu_mask_hint), cpu_bound), 0);
  walk_payload(data, len, n_records, file_offset, chunk_id, cpu_bound,
               [&](std::size_t cpu, std::uint64_t delta, std::uint64_t pid64,
                   std::uint64_t event64, std::uint64_t arg, std::size_t pos) {
                 if (cpu >= prev_ts.size()) {
                   // Cold path: a cpu >= 63 (the mask's overflow bit) or a
                   // mask that under-reported. Growth stays bounded by
                   // cpu_bound and by the largest cpu in this chunk.
                   prev_ts.resize(cpu + 1, 0);
                 }
                 tracebuf::EventRecord rec;
                 rec.timestamp = prev_ts[cpu] + delta;
                 prev_ts[cpu] = rec.timestamp;
                 rec.cpu = static_cast<std::uint16_t>(cpu);
                 rec.pid = narrow<std::uint32_t>(pid64, "pid", pos);
                 rec.event = narrow<std::uint16_t>(event64, "event", pos);
                 rec.arg = arg;
                 out.push_back(rec);
               });
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / indexing
// ---------------------------------------------------------------------------

OsntReader::OsntReader(const std::string& path, IoMode mode)
    : file_(std::fopen(path.c_str(), "rb")) {
  if (file_ == nullptr) throw TraceReadError("cannot open trace file: " + path, 0);
  std::fseek(file_, 0, SEEK_END);
  const long end = std::ftell(file_);
  if (end < 0) throw TraceReadError("cannot size trace file: " + path, 0);
  size_ = static_cast<std::uint64_t>(end);
  backend_ = IoBackend::kPread;
  if (mode == IoMode::kAuto) {
    map_ = MappedFile::map(fileno(file_), size_);
    if (map_.valid()) {
      mem_ = map_.data();
      backend_ = IoBackend::kMmap;
    }
  }
  open_and_index();
}

OsntReader::OsntReader(std::vector<std::uint8_t> bytes)
    : bytes_(std::move(bytes)), mem_(bytes_.data()), size_(bytes_.size()) {
  open_and_index();
}

OsntReader::OsntReader(const std::uint8_t* data, std::size_t size)
    : mem_(data), size_(size) {
  open_and_index();
}

OsntReader::~OsntReader() {
  map_ = MappedFile();  // unmap before closing the descriptor
  if (file_ != nullptr) std::fclose(file_);
}

const std::uint8_t* OsntReader::view_at(std::uint64_t offset, std::uint64_t len,
                                        std::vector<std::uint8_t>& scratch) const {
  if (offset > size_ || len > size_ - offset)
    throw TraceReadError("read beyond end of trace", offset);
  if (mem_ != nullptr) return mem_ + offset;  // mapping or in-memory buffer
  // pread fallback: thread-safe positioned reads into caller-local scratch —
  // parallel chunk decode shares the one descriptor without seeking.
  scratch.resize(static_cast<std::size_t>(len));
  if (len == 0) return scratch.data();
  std::size_t done = 0;
  while (done < scratch.size()) {
    const ssize_t n = ::pread(fileno(file_), scratch.data() + done, scratch.size() - done,
                              static_cast<off_t>(offset + done));
    if (n <= 0) throw TraceReadError("trace file read failed", offset + done);
    done += static_cast<std::size_t>(n);
  }
  return scratch.data();
}

void OsntReader::open_and_index() {
  std::vector<std::uint8_t> scratch;
  const std::uint64_t head_len = std::min<std::uint64_t>(size_, 20);
  const std::uint8_t* head = view_at(0, head_len, scratch);
  std::size_t pos = 0;
  if (get_varint(head, static_cast<std::size_t>(head_len), pos) != osnt::kMagic)
    throw TraceReadError("bad magic: not an OSNT trace", 0);
  const std::uint64_t version = get_varint(head, static_cast<std::size_t>(head_len), pos);
  data_begin_ = pos;
  if (version != osnt::kVersionChunked) throw TraceReadError("unsupported OSNT version", pos);
  if (!parse_trailer_and_index()) {
    chunks_.clear();
    index_summary_.reset();
    index_recovered_ = true;
    recover_by_scan();
  }
}

bool OsntReader::parse_trailer_and_index() {
  if (size_ < data_begin_ + osnt::kTrailerSize) return false;
  std::vector<std::uint8_t> tscratch;
  const std::uint8_t* trailer =
      view_at(size_ - osnt::kTrailerSize, osnt::kTrailerSize, tscratch);
  std::size_t tpos = 0;
  const std::uint64_t index_offset = osnt::get_u64le(trailer, osnt::kTrailerSize, tpos);
  const std::uint64_t footer_offset = osnt::get_u64le(trailer, osnt::kTrailerSize, tpos);
  const std::uint32_t flags = osnt::get_u32le(trailer, osnt::kTrailerSize, tpos);
  if (osnt::get_u32le(trailer, osnt::kTrailerSize, tpos) != osnt::kTrailerMagic)
    return false;

  const std::uint64_t index_end = size_ - osnt::kTrailerSize;
  if (index_offset < data_begin_ || index_offset + 5 > index_end) return false;
  std::vector<std::uint8_t> iscratch;
  const std::uint8_t* idx = view_at(index_offset, index_end - index_offset, iscratch);
  const auto isize = static_cast<std::size_t>(index_end - index_offset);

  // Entries first, then their CRC; an optional pre-aggregate block may
  // follow (files written without one end the region at the entries CRC).
  std::size_t ipos = 0;
  std::uint64_t n_chunks = 0;
  try {
    n_chunks = get_varint(idx, isize, ipos);
    if (n_chunks > isize / 6 + 1) return false;
    std::uint64_t prev_end = data_begin_;
    chunks_.reserve(static_cast<std::size_t>(n_chunks));
    for (std::uint64_t i = 0; i < n_chunks; ++i) {
      ChunkInfo c;
      c.offset = get_varint(idx, isize, ipos);
      c.records = get_varint(idx, isize, ipos);
      c.payload_len = get_varint(idx, isize, ipos);
      c.t_first = get_varint(idx, isize, ipos);
      c.t_last = c.t_first + get_varint(idx, isize, ipos);
      c.cpu_mask = get_varint(idx, isize, ipos);
      if (c.records == 0 || c.offset < prev_end || c.payload_len > index_offset ||
          c.offset + c.payload_len > index_offset)
        return false;
      prev_end = c.offset;  // offsets strictly increase chunk to chunk
      chunks_.push_back(c);
    }
  } catch (const TraceReadError&) {
    return false;
  }
  if (ipos + 4 > isize) return false;
  std::size_t cpos = ipos;
  const std::uint32_t stored_crc = osnt::get_u32le(idx, isize, cpos);
  if (crc32(idx, ipos) != stored_crc) return false;

  truncated_ = (flags & osnt::kFlagTruncated) != 0;
  if (truncated_) {
    synthesize_truncated_meta();
    return true;
  }
  if (footer_offset < data_begin_ || footer_offset >= index_offset) return false;
  try {
    parse_footer(footer_offset, index_offset);
  } catch (const TraceReadError& e) {
    // Index intact but footer rotted: salvage the records, surface the
    // problem through verify()/truncated() instead of refusing the file.
    open_issues_.push_back(
        ChunkIssue{TraceReadError::kNoChunk, e.byte_offset(), e.what()});
    truncated_ = true;
    tasks_.clear();
    synthesize_truncated_meta();
  }
  if (!truncated_ && cpos < isize)
    parse_aggregate_block(idx, isize, cpos, static_cast<std::size_t>(n_chunks),
                          index_offset);
  return true;
}

void OsntReader::parse_aggregate_block(const std::uint8_t* idx, std::size_t size,
                                       std::size_t pos, std::size_t n_chunks,
                                       std::uint64_t base_offset) {
  // Damage here never fails the open: the aggregates are an accelerator, the
  // chunks remain the ground truth. Rejected blocks surface via verify().
  const std::size_t begin = pos;
  try {
    if (osnt::get_u32le(idx, size, pos) != osnt::kAggMagic)
      throw TraceReadError("unrecognized bytes after chunk index", base_offset + begin);
    if (get_varint(idx, size, pos) != n_chunks)
      throw TraceReadError("aggregate chunk count disagrees with index",
                           base_offset + pos);
    IndexSummary summary;
    summary.chunks.resize(n_chunks);
    for (std::size_t i = 0; i < n_chunks; ++i)
      osnt::get_aggregate(idx, size, pos, summary.chunks[i]);
    osnt::get_aggregate(idx, size, pos, summary.tail);
    const std::size_t block_end = pos;
    if (osnt::get_u32le(idx, size, pos) !=
        crc32(idx + begin, block_end - begin))
      throw TraceReadError("aggregate block CRC mismatch", base_offset + begin);
    if (pos != size)
      throw TraceReadError("trailing bytes after aggregate block", base_offset + pos);
    index_summary_ = std::move(summary);
  } catch (const TraceReadError& e) {
    index_summary_.reset();
    open_issues_.push_back(ChunkIssue{TraceReadError::kNoChunk, e.byte_offset(), e.what()});
  }
}

void OsntReader::parse_footer(std::uint64_t footer_offset, std::uint64_t end) {
  std::vector<std::uint8_t> scratch;
  const std::uint8_t* footer = view_at(footer_offset, end - footer_offset, scratch);
  const auto fsize = static_cast<std::size_t>(end - footer_offset);
  std::size_t pos = 0;
  TraceMeta meta;
  std::map<Pid, TaskInfo> tasks;
  try {
    osnt::get_meta_and_tasks(footer, fsize, pos, meta, tasks);
    osnt::get_drain(footer, fsize, pos, meta.drain);
  } catch (const TraceReadError& e) {
    throw TraceReadError(e.what(), footer_offset + e.byte_offset());
  }
  if (pos != fsize)
    throw TraceReadError("trailing bytes after trace footer", footer_offset + pos);
  if (meta.n_cpus > kMaxCpus)
    throw TraceReadError("footer n_cpus out of range", footer_offset);
  meta_ = std::move(meta);
  tasks_ = std::move(tasks);
}

void OsntReader::recover_by_scan() {
  // The trailer or index is unusable (killed writer, torn tail, bit rot in
  // the index). Walk the chunk stream from the front, CRC-checking each
  // chunk, and keep everything up to the first corrupt byte. Every access is
  // a bounded window — one chunk (or the capped footer region) at a time —
  // so recovery of a damaged multi-GiB file never materializes the file.
  std::uint64_t pos = data_begin_;
  bool footer_ok = false;
  for (;;) {
    if (pos >= size_) {
      truncated_ = true;
      break;
    }
    std::uint64_t count = 0, payload_len = 0;
    std::uint64_t header_len = 0;
    try {
      std::vector<std::uint8_t> hscratch;
      const std::uint64_t hlen = std::min<std::uint64_t>(size_ - pos, 20);
      const std::uint8_t* head = view_at(pos, hlen, hscratch);
      std::size_t hpos = 0;
      count = get_varint(head, static_cast<std::size_t>(hlen), hpos);
      if (count != 0) payload_len = get_varint(head, static_cast<std::size_t>(hlen), hpos);
      header_len = hpos;
    } catch (const TraceReadError& e) {
      truncated_ = true;
      open_issues_.push_back(ChunkIssue{static_cast<std::int64_t>(chunks_.size()),
                                        e.byte_offset(), e.what()});
      break;
    }
    if (count == 0) {
      // Terminator: a footer should follow (the index after it is what
      // failed to parse — ignore it, we just rebuilt it).
      const std::uint64_t footer_off = pos + header_len;
      const std::uint64_t footer_end =
          std::min(size_, footer_off + kMaxFooterBytes);
      try {
        parse_footer(footer_off, footer_end);
        footer_ok = true;
      } catch (const TraceReadError&) {
        // Footer region may legitimately be followed by the damaged index,
        // so "trailing bytes" is not decisive — reparse leniently: accept a
        // footer that parses, whatever follows it.
        try {
          std::vector<std::uint8_t> fscratch;
          const std::uint8_t* tail =
              view_at(footer_off, footer_end - footer_off, fscratch);
          const auto tsize = static_cast<std::size_t>(footer_end - footer_off);
          std::size_t fpos = 0;
          TraceMeta meta;
          std::map<Pid, TaskInfo> tasks;
          osnt::get_meta_and_tasks(tail, tsize, fpos, meta, tasks);
          osnt::get_drain(tail, tsize, fpos, meta.drain);
          meta_ = std::move(meta);
          tasks_ = std::move(tasks);
          footer_ok = true;
        } catch (const TraceReadError& e) {
          truncated_ = true;
          open_issues_.push_back(
              ChunkIssue{TraceReadError::kNoChunk, e.byte_offset(), e.what()});
        }
      }
      break;
    }
    ChunkInfo c;
    c.offset = pos;
    c.records = count;
    c.payload_len = payload_len;
    std::vector<tracebuf::EventRecord> records;
    try {
      if (payload_len > size_ - pos - header_len ||
          4 > size_ - pos - header_len - payload_len)
        throw TraceReadError("chunk extends past end of trace", pos,
                             static_cast<std::int64_t>(chunks_.size()));
      std::vector<std::uint8_t> bscratch;
      const std::uint8_t* body = view_at(pos + header_len, payload_len + 4, bscratch);
      const auto blen = static_cast<std::size_t>(payload_len) + 4;
      std::size_t cpos = static_cast<std::size_t>(payload_len);
      const std::uint32_t stored = osnt::get_u32le(body, blen, cpos);
      if (crc32(body, static_cast<std::size_t>(payload_len)) != stored)
        throw TraceReadError("chunk CRC mismatch", pos + header_len,
                             static_cast<std::int64_t>(chunks_.size()));
      // No trustworthy metadata yet: bound cpu ids by the format limit only.
      records = decode_payload(body, static_cast<std::size_t>(payload_len), count,
                               pos + header_len, static_cast<std::int64_t>(chunks_.size()),
                               kMaxCpus, /*cpu_mask_hint=*/0);
    } catch (const TraceReadError& e) {
      truncated_ = true;
      open_issues_.push_back(ChunkIssue{static_cast<std::int64_t>(chunks_.size()),
                                        e.byte_offset(), e.what()});
      break;
    }
    c.t_first = records.front().timestamp;
    c.t_last = records.back().timestamp;
    for (const auto& rec : records)
      c.cpu_mask |= 1ULL << std::min<std::uint32_t>(rec.cpu, 63);
    chunks_.push_back(c);
    pos += header_len + payload_len + 4;
  }
  if (!footer_ok && meta_.n_cpus == 0) synthesize_truncated_meta();
}

void OsntReader::synthesize_truncated_meta() {
  meta_ = TraceMeta{};
  meta_.workload = "(truncated)";
  std::uint64_t mask = 0;
  for (const ChunkInfo& c : chunks_) mask |= c.cpu_mask;
  std::uint16_t n_cpus = 0;
  for (std::uint16_t bit = 0; bit < 64; ++bit)
    if ((mask >> bit) & 1) n_cpus = static_cast<std::uint16_t>(bit + 1);
  meta_.n_cpus = n_cpus;
  meta_.start_ns = 0;
  meta_.end_ns = chunks_.empty() ? 0 : chunks_.back().t_last + 1;
}

std::uint64_t OsntReader::indexed_records() const {
  std::uint64_t n = 0;
  for (const ChunkInfo& c : chunks_) n += c.records;
  return n;
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

std::size_t OsntReader::decode_cpu_bound() const {
  // Intact files bound records by the footer's cpu count; without a footer
  // (truncation) only the format-wide limit applies. Both keep a hostile cpu
  // varint from driving unbounded per-cpu allocations.
  if (truncated_) return static_cast<std::size_t>(kMaxCpus);
  return meta_.n_cpus;
}

const std::uint8_t* OsntReader::checked_payload(std::size_t i,
                                                std::vector<std::uint8_t>& scratch,
                                                std::uint64_t& payload_off) const {
  const ChunkInfo& c = chunks_[i];
  const std::uint64_t hlen = std::min<std::uint64_t>(size_ - c.offset, 20);
  const std::uint8_t* head = view_at(c.offset, hlen, scratch);
  std::size_t hpos = 0;
  const std::uint64_t count = get_varint(head, static_cast<std::size_t>(hlen), hpos);
  const std::uint64_t payload_len = get_varint(head, static_cast<std::size_t>(hlen), hpos);
  if (count != c.records || payload_len != c.payload_len)
    throw TraceReadError("chunk header disagrees with index", c.offset,
                         static_cast<std::int64_t>(i));
  payload_off = c.offset + hpos;
  const std::uint8_t* body = view_at(payload_off, c.payload_len + 4, scratch);
  const auto blen = static_cast<std::size_t>(c.payload_len) + 4;
  std::size_t cpos = static_cast<std::size_t>(c.payload_len);
  const std::uint32_t stored = osnt::get_u32le(body, blen, cpos);
  if (crc32(body, static_cast<std::size_t>(c.payload_len)) != stored)
    throw TraceReadError("chunk CRC mismatch", payload_off, static_cast<std::int64_t>(i));
  return body;
}

std::vector<tracebuf::EventRecord> OsntReader::decode_chunk(std::size_t i) const {
  const ChunkInfo& c = chunks_[i];
  std::vector<std::uint8_t> scratch;
  std::uint64_t payload_off = 0;
  const std::uint8_t* body = checked_payload(i, scratch, payload_off);
  return decode_payload(body, static_cast<std::size_t>(c.payload_len), c.records, payload_off,
                        static_cast<std::int64_t>(i), decode_cpu_bound(), c.cpu_mask);
}

namespace {

/// One cpu's records within one chunk: found by the count step, given its
/// place in the cpu's stream by the order step, filled by the place step.
struct CpuRun {
  std::size_t cpu = 0;
  std::size_t count = 0;
  TimeNs first = 0;  ///< timestamp of the run's first record
  TimeNs last = 0;   ///< timestamp of the run's last record
  std::size_t slot = 0;  ///< index of the run's first record in the cpu's stream
};

/// Count step for one CRC-checked payload: one walk that keeps, per cpu
/// present, the record count and the first and last timestamp. It rejects
/// everything the place step must never meet — an out-of-range pid or event
/// and a timestamp that wraps within the chunk — so placing cannot fail on
/// intact bytes. The dense scratch grows only to the largest cpu this chunk
/// holds, and the runs kept are one per cpu present: a chunk's cost never
/// scales with the file's cpu count.
///
/// Count and place are separate functions on purpose: with both payload
/// walks inside one caller, GCC's inline-growth budget stops inlining the
/// varint fast path into the second walk, costing ~40% decode throughput.
std::vector<CpuRun> count_payload(const std::uint8_t* data, std::size_t len,
                                  std::uint64_t n_records, std::uint64_t file_offset,
                                  std::int64_t chunk_id, std::uint64_t chunk_offset,
                                  std::size_t cpu_bound, std::uint64_t cpu_mask_hint) {
  std::vector<CpuRun> tally(std::min(mask_width(cpu_mask_hint), cpu_bound));
  bool wrapped = false;
  walk_payload(data, len, n_records, file_offset, chunk_id, cpu_bound,
               [&](std::size_t cpu, std::uint64_t delta, std::uint64_t pid64,
                   std::uint64_t event64, std::uint64_t, std::size_t pos) {
                 if (cpu >= tally.size()) tally.resize(cpu + 1);
                 CpuRun& run = tally[cpu];
                 const TimeNs ts = run.last + delta;
                 wrapped |= ts < run.last;
                 if (run.count++ == 0) run.first = ts;
                 run.last = ts;
                 (void)narrow<std::uint32_t>(pid64, "pid", pos);
                 (void)narrow<std::uint16_t>(event64, "event", pos);
               });
  // Decode errors anywhere in the chunk win over a wrap, as they would in a
  // record-by-record decode followed by an order check.
  if (wrapped)
    throw TraceReadError("stream not time-ordered across chunks", chunk_offset, chunk_id);
  std::vector<CpuRun> runs;
  for (std::size_t cpu = 0; cpu < tally.size(); ++cpu) {
    if (tally[cpu].count == 0) continue;
    runs.push_back(tally[cpu]);
    runs.back().cpu = cpu;
  }
  return runs;
}

/// Place step for one payload: decodes every record straight into its slot
/// of the final per-cpu streams. Runs of different chunks are disjoint, so
/// chunks place concurrently without a lock. A payload that no longer
/// matches its count (the file changed between the two reads) throws rather
/// than write outside its runs.
void place_payload(const std::uint8_t* data, std::size_t len, std::uint64_t n_records,
                   std::uint64_t file_offset, std::int64_t chunk_id,
                   const std::vector<CpuRun>& runs,
                   std::vector<std::vector<tracebuf::EventRecord>>& per_cpu) {
  struct Cursor {
    tracebuf::EventRecord* next = nullptr;
    tracebuf::EventRecord* end = nullptr;
    TimeNs prev = 0;
  };
  std::vector<Cursor> cursors(runs.empty() ? 0 : runs.back().cpu + 1);
  for (const CpuRun& run : runs) {
    tracebuf::EventRecord* const base = per_cpu[run.cpu].data() + run.slot;
    cursors[run.cpu] = Cursor{base, base + run.count, 0};
  }
  walk_payload(data, len, n_records, file_offset, chunk_id, cursors.size(),
               [&](std::size_t cpu, std::uint64_t delta, std::uint64_t pid64,
                   std::uint64_t event64, std::uint64_t arg, std::size_t pos) {
                 Cursor& cur = cursors[cpu];
                 if (cur.next == cur.end)
                   throw TraceReadError("chunk changed while reading", pos);
                 cur.prev += delta;
                 *cur.next++ = tracebuf::EventRecord{cur.prev, static_cast<std::uint32_t>(pid64),
                                                     static_cast<std::uint16_t>(cpu),
                                                     static_cast<std::uint16_t>(event64), arg};
               });
}

/// Runs fn(k) for every k in [0, n), on the pool when there is one. The
/// lowest failing k's exception is rethrown, so a read reports the same
/// error at any worker count and under any scheduling.
void for_each_index(std::size_t n, ThreadPool* pool,
                    const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || n < 2) {
    for (std::size_t k = 0; k < n; ++k) fn(k);
    return;
  }
  std::vector<std::exception_ptr> errors(n);
  pool->parallel_for(n, [&](std::size_t k) {
    try {
      fn(k);
    } catch (...) {
      errors[k] = std::current_exception();
    }
  });
  for (const auto& err : errors)
    if (err) std::rethrow_exception(err);
}

}  // namespace

TraceModel OsntReader::build_model(const std::vector<std::size_t>& ids, ThreadPool* pool) {
  TraceMeta meta;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    meta = meta_;
  }
  // A model has one stream per cpu and TraceMeta::n_cpus (u16) counts at
  // most 65535 of them, so a truncated file's record on cpu 65535 — which
  // for_each streams — is out of range here.
  const std::size_t cpu_bound = std::min<std::size_t>(
      decode_cpu_bound(), std::numeric_limits<decltype(TraceMeta::n_cpus)>::max());

  // Count: verify each chunk (header vs index, payload CRC, every record's
  // fields) and find its per-cpu runs. Both walks touch every chunk byte, so
  // a mapped chunk is faulted in bulk first rather than a trap at a time.
  struct Counted {
    std::uint64_t payload_off = 0;
    std::vector<CpuRun> runs;
  };
  std::vector<Counted> counted(ids.size());
  for_each_index(ids.size(), pool, [&](std::size_t k) {
    const std::size_t i = ids[k];
    const ChunkInfo& c = chunks_[i];
    if (backend_ == IoBackend::kMmap)
      prefault_readable(mem_ + c.offset, static_cast<std::size_t>(c.payload_len));
    std::vector<std::uint8_t> scratch;
    const std::uint8_t* body = checked_payload(i, scratch, counted[k].payload_off);
    counted[k].runs = count_payload(body, static_cast<std::size_t>(c.payload_len), c.records,
                                    counted[k].payload_off, static_cast<std::int64_t>(i),
                                    c.offset, cpu_bound, c.cpu_mask);
  });

  // Order: one pass in chunk order checks each cpu's time order across
  // chunks and gives every run its slot. Intact files have exactly
  // meta.n_cpus streams (decode bounded every cpu by it); truncated files
  // grow to the highest cpu actually seen.
  std::size_t n_cpus = meta.n_cpus;
  for (const Counted& chunk : counted)
    if (!chunk.runs.empty()) n_cpus = std::max(n_cpus, chunk.runs.back().cpu + 1);
  std::vector<std::size_t> totals(n_cpus, 0);
  std::vector<TimeNs> last_ts(n_cpus, 0);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    for (CpuRun& run : counted[k].runs) {
      if (run.first < last_ts[run.cpu])
        throw TraceReadError("stream not time-ordered across chunks", chunks_[ids[k]].offset,
                             static_cast<std::int64_t>(ids[k]));
      last_ts[run.cpu] = run.last;
      run.slot = totals[run.cpu];
      totals[run.cpu] += run.count;
    }
  }

  // Place: every stream is sized exactly (pre-faulted in one batched pass,
  // then zeroed by resize — a fresh buffer's cost, paid on the pool), then
  // each chunk decodes into its own slots.
  std::vector<std::vector<tracebuf::EventRecord>> per_cpu(n_cpus);
  std::vector<std::size_t> present;
  for (std::size_t cpu = 0; cpu < n_cpus; ++cpu)
    if (totals[cpu] != 0) present.push_back(cpu);
  for_each_index(present.size(), pool, [&](std::size_t k) {
    const std::size_t n = totals[present[k]];
    auto& stream = per_cpu[present[k]];
    stream.reserve(n);
    prefault_writable(stream.data(), n * sizeof(tracebuf::EventRecord));
    stream.resize(n);
  });
  for_each_index(ids.size(), pool, [&](std::size_t k) {
    const ChunkInfo& c = chunks_[ids[k]];
    std::vector<std::uint8_t> scratch;
    const std::uint8_t* body = view_at(counted[k].payload_off, c.payload_len, scratch);
    place_payload(body, static_cast<std::size_t>(c.payload_len), c.records,
                  counted[k].payload_off, static_cast<std::int64_t>(ids[k]), counted[k].runs,
                  per_cpu);
  });

  if (truncated_) {
    TimeNs last_seen = 0;
    for (const TimeNs t : last_ts) last_seen = std::max(last_seen, t);
    meta.n_cpus = static_cast<std::uint16_t>(n_cpus);
    meta.end_ns = std::max(meta.end_ns, last_seen + 1);
    std::lock_guard<std::mutex> lock(mutex_);
    meta_ = meta;
  }
  return TraceModel(std::move(meta), std::move(per_cpu), tasks_);
}

TraceModel OsntReader::read_all(ThreadPool* pool) {
  std::vector<std::size_t> ids(chunks_.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  return build_model(ids, pool);
}

std::pair<std::size_t, std::size_t> OsntReader::window_chunk_range(TimeNs t0,
                                                                   TimeNs t1) const {
  if (t1 <= t0 || chunks_.empty()) return {0, 0};
  // Chunks slice the global merged stream, so their time ranges are sorted:
  // binary-search the first chunk that can reach t0, walk to the last whose
  // t_first is below t1.
  const auto first = std::partition_point(chunks_.begin(), chunks_.end(),
                                          [t0](const ChunkInfo& c) { return c.t_last < t0; });
  auto last = first;
  while (last != chunks_.end() && last->t_first < t1) ++last;
  return {static_cast<std::size_t>(first - chunks_.begin()),
          static_cast<std::size_t>(last - chunks_.begin())};
}

TraceModel OsntReader::read_chunks(const std::vector<std::size_t>& ids, ThreadPool* pool) {
  for (std::size_t i = 0; i < ids.size(); ++i)
    if (ids[i] >= chunks_.size() || (i > 0 && ids[i] <= ids[i - 1]))
      throw TraceReadError("chunk ids must be strictly increasing and in range", 0);
  return build_model(ids, pool);
}

void OsntReader::for_each(const std::function<void(const tracebuf::EventRecord&)>& fn) {
  std::vector<TimeNs> last_ts;
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    const auto records = decode_chunk(i);
    for (const auto& rec : records) {
      if (rec.cpu >= last_ts.size()) last_ts.resize(rec.cpu + 1u, 0);
      if (rec.timestamp < last_ts[rec.cpu])
        throw TraceReadError("stream not time-ordered across chunks", chunks_[i].offset,
                             static_cast<std::int64_t>(i));
      last_ts[rec.cpu] = rec.timestamp;
      fn(rec);
    }
  }
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

VerifyReport OsntReader::verify() {
  VerifyReport report;
  report.truncated = truncated_;
  report.index_recovered = index_recovered_;
  report.issues = open_issues_;
  report.chunks = chunks_.size();

  std::vector<TimeNs> last_ts;
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    const ChunkInfo& c = chunks_[i];
    try {
      const auto records = decode_chunk(i);
      if (records.front().timestamp != c.t_first || records.back().timestamp != c.t_last)
        report.issues.push_back(ChunkIssue{static_cast<std::int64_t>(i), c.offset,
                                           "chunk time range disagrees with index"});
      std::uint64_t mask = 0;
      for (const auto& rec : records) {
        mask |= 1ULL << std::min<std::uint32_t>(rec.cpu, 63);
        if (rec.cpu >= last_ts.size()) last_ts.resize(rec.cpu + 1u, 0);
        if (rec.timestamp < last_ts[rec.cpu]) {
          report.issues.push_back(ChunkIssue{static_cast<std::int64_t>(i), c.offset,
                                             "stream not time-ordered across chunks"});
          break;
        }
        last_ts[rec.cpu] = rec.timestamp;
      }
      if (mask != c.cpu_mask)
        report.issues.push_back(ChunkIssue{static_cast<std::int64_t>(i), c.offset,
                                           "chunk cpu mask disagrees with index"});
      report.records += records.size();
    } catch (const TraceReadError& e) {
      report.issues.push_back(
          ChunkIssue{static_cast<std::int64_t>(i), e.byte_offset(), e.what()});
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Window clipping and the cpu predicate
// ---------------------------------------------------------------------------

TraceModel window_of(const TraceModel& model, TimeNs t0, TimeNs t1) {
  std::vector<std::vector<tracebuf::EventRecord>> per_cpu(model.cpu_count());
  std::vector<bool> drop;
  std::vector<std::size_t> open;
  for (CpuId c = 0; c < model.cpu_count(); ++c) {
    const auto& stream = model.cpu_events(c);
    // The window slice of this cpu's (time-sorted) stream.
    const auto lo = std::partition_point(
        stream.begin(), stream.end(),
        [t0](const tracebuf::EventRecord& r) { return r.timestamp < t0; });
    const auto hi = std::partition_point(
        lo, stream.end(), [t1](const tracebuf::EventRecord& r) { return r.timestamp < t1; });
    const std::span<const tracebuf::EventRecord> slice(lo, hi);
    const std::size_t n = slice.size();

    // Frame repair: drop exits whose entry predates the window, and entries
    // whose exit postdates it, so pairing stays balanced. Nesting is proper
    // per CPU, so removing an unmatched frame never unbalances another.
    drop.assign(n, false);
    open.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const auto type = static_cast<EventType>(slice[i].event);
      if (is_entry(type)) {
        open.push_back(i);
      } else if (is_exit(type)) {
        if (open.empty()) {
          drop[i] = true;  // entry happened before t0
        } else {
          open.pop_back();
        }
      }
    }
    for (const std::size_t i : open) drop[i] = true;  // exit happens after t1

    auto& dst = per_cpu[c];
    dst.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      if (!drop[i]) dst.push_back(slice[i]);
  }
  TraceMeta meta = model.meta();
  meta.start_ns = std::max(meta.start_ns, t0);
  meta.end_ns = std::min(meta.end_ns, t1);
  if (meta.end_ns < meta.start_ns) meta.end_ns = meta.start_ns;
  return TraceModel(std::move(meta), std::move(per_cpu), model.tasks());
}

TraceModel restrict_to_cpu(const TraceModel& model, CpuId cpu) {
  std::vector<std::vector<tracebuf::EventRecord>> per_cpu(model.cpu_count());
  if (cpu < per_cpu.size()) per_cpu[cpu] = model.cpu_events(cpu);
  return TraceModel(model.meta(), std::move(per_cpu), model.tasks());
}

}  // namespace osn::trace
