#include "trace/trace_io.hpp"

#include <algorithm>
#include <cstdio>

#include "common/assert.hpp"
#include "common/crc32.hpp"
#include "common/varint.hpp"
#include "trace/osnt_layout.hpp"
#include "trace/osnt_reader.hpp"

namespace osn::trace {

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

// Out-of-line throw path keeps the inlined get_varint hot loop small (the
// compiler can treat the error branches as cold calls).
void throw_varint_error(const char* what, std::size_t pos) {
  throw TraceReadError(what, pos);
}

// ---------------------------------------------------------------------------
// Shared layout codecs (osnt_layout.hpp)
// ---------------------------------------------------------------------------

namespace osnt {

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_varint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

std::string get_string(const std::uint8_t* buf, std::size_t size, std::size_t& pos) {
  const std::uint64_t len = get_varint(buf, size, pos);
  if (len > size - pos) throw TraceReadError("truncated string", pos);
  std::string s(reinterpret_cast<const char*>(buf + pos), static_cast<std::size_t>(len));
  pos += static_cast<std::size_t>(len);
  return s;
}

void put_meta_and_tasks(std::vector<std::uint8_t>& out, const TraceMeta& meta,
                        const std::map<Pid, TaskInfo>& tasks) {
  put_varint(out, meta.n_cpus);
  put_varint(out, meta.tick_period_ns);
  put_varint(out, meta.start_ns);
  put_varint(out, meta.end_ns);
  put_string(out, meta.workload);

  put_varint(out, tasks.size());
  for (const auto& [pid, info] : tasks) {
    put_varint(out, pid);
    put_string(out, info.name);
    put_varint(out, static_cast<std::uint64_t>(info.is_app ? 1 : 0) |
                        (static_cast<std::uint64_t>(info.is_kernel_thread ? 1 : 0) << 1));
  }
}

void get_meta_and_tasks(const std::uint8_t* buf, std::size_t size, std::size_t& pos,
                        TraceMeta& meta, std::map<Pid, TaskInfo>& tasks) {
  meta.n_cpus = narrow<std::uint16_t>(get_varint(buf, size, pos), "n_cpus", pos);
  meta.tick_period_ns = get_varint(buf, size, pos);
  meta.start_ns = get_varint(buf, size, pos);
  meta.end_ns = get_varint(buf, size, pos);
  meta.workload = get_string(buf, size, pos);

  const std::uint64_t n_tasks = get_varint(buf, size, pos);
  // Each task consumes >= 3 bytes, so a count beyond that is corrupt — check
  // before the loop rather than allocating on attacker-controlled sizes.
  if (n_tasks > (size - pos) / 3 + 1)
    throw TraceReadError("implausible task count", pos);
  for (std::uint64_t i = 0; i < n_tasks; ++i) {
    TaskInfo info;
    info.pid = narrow<Pid>(get_varint(buf, size, pos), "task pid", pos);
    info.name = get_string(buf, size, pos);
    const std::uint64_t flags = get_varint(buf, size, pos);
    info.is_app = (flags & 1) != 0;
    info.is_kernel_thread = (flags & 2) != 0;
    tasks.emplace(info.pid, std::move(info));
  }
}

void put_drain(std::vector<std::uint8_t>& out, const DrainStats& drain) {
  put_varint(out, drain.records);
  put_varint(out, drain.batches);
  put_varint(out, drain.max_batch);
  put_varint(out, drain.lost);
  put_varint(out, drain.overwritten);
  put_varint(out, drain.producer_stalls);
}

void get_drain(const std::uint8_t* buf, std::size_t size, std::size_t& pos,
               DrainStats& drain) {
  drain.records = get_varint(buf, size, pos);
  drain.batches = get_varint(buf, size, pos);
  drain.max_batch = get_varint(buf, size, pos);
  drain.lost = get_varint(buf, size, pos);
  drain.overwritten = get_varint(buf, size, pos);
  drain.producer_stalls = get_varint(buf, size, pos);
}

void put_aggregate(std::vector<std::uint8_t>& out, const ChunkAggregate& agg) {
  put_varint(out, agg.classes.size());
  for (const auto& c : agg.classes) {
    put_varint(out, c.cls);
    put_varint(out, c.acc.count);
    put_varint(out, c.acc.sum);
    put_varint(out, c.acc.max);
    put_varint(out, c.acc.min);
  }
  put_varint(out, agg.preempt.size());
  for (const auto& p : agg.preempt) {
    put_varint(out, p.task);
    put_varint(out, p.acc.count);
    put_varint(out, p.acc.sum);
    put_varint(out, p.acc.max);
    put_varint(out, p.acc.min);
    put_varint(out, p.cex_count);
    put_varint(out, p.cex_sum);
  }
  put_varint(out, agg.noise.size());
  for (const auto& n : agg.noise) {
    put_varint(out, n.task);
    put_varint(out, n.cat);
    put_varint(out, n.count);
    put_varint(out, n.sum);
  }
  put_varint(out, agg.cpu_events.size());
  for (const auto& c : agg.cpu_events) {
    put_varint(out, c.cpu);
    put_varint(out, c.count);
  }
}

namespace {

/// Each list entry encodes to >= 2 bytes; a larger count cannot be honest.
/// Checked before reserving on attacker-controlled sizes.
std::size_t checked_agg_count(const std::uint8_t* buf, std::size_t size, std::size_t& pos) {
  const std::uint64_t n = get_varint(buf, size, pos);
  if (n > (size - pos) / 2 + 1)
    throw TraceReadError("implausible aggregate list length", pos);
  return static_cast<std::size_t>(n);
}

}  // namespace

void get_aggregate(const std::uint8_t* buf, std::size_t size, std::size_t& pos,
                   ChunkAggregate& agg) {
  std::size_t n = checked_agg_count(buf, size, pos);
  agg.classes.resize(n);
  for (auto& c : agg.classes) {
    c.cls = get_varint(buf, size, pos);
    c.acc.count = get_varint(buf, size, pos);
    c.acc.sum = get_varint(buf, size, pos);
    c.acc.max = get_varint(buf, size, pos);
    c.acc.min = get_varint(buf, size, pos);
  }
  n = checked_agg_count(buf, size, pos);
  agg.preempt.resize(n);
  for (auto& p : agg.preempt) {
    p.task = get_varint(buf, size, pos);
    p.acc.count = get_varint(buf, size, pos);
    p.acc.sum = get_varint(buf, size, pos);
    p.acc.max = get_varint(buf, size, pos);
    p.acc.min = get_varint(buf, size, pos);
    p.cex_count = get_varint(buf, size, pos);
    p.cex_sum = get_varint(buf, size, pos);
  }
  n = checked_agg_count(buf, size, pos);
  agg.noise.resize(n);
  for (auto& e : agg.noise) {
    e.task = get_varint(buf, size, pos);
    e.cat = get_varint(buf, size, pos);
    e.count = get_varint(buf, size, pos);
    e.sum = get_varint(buf, size, pos);
  }
  n = checked_agg_count(buf, size, pos);
  agg.cpu_events.resize(n);
  for (auto& c : agg.cpu_events) {
    c.cpu = get_varint(buf, size, pos);
    c.count = get_varint(buf, size, pos);
  }
}

void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32le(const std::uint8_t* buf, std::size_t size, std::size_t& pos) {
  if (size - pos < 4) throw TraceReadError("truncated u32 field", pos);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf[pos + static_cast<std::size_t>(i)]) << (8 * i);
  pos += 4;
  return v;
}

std::uint64_t get_u64le(const std::uint8_t* buf, std::size_t size, std::size_t& pos) {
  if (size - pos < 8) throw TraceReadError("truncated u64 field", pos);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf[pos + static_cast<std::size_t>(i)]) << (8 * i);
  pos += 8;
  return v;
}

}  // namespace osnt

bool write_trace_file(const TraceModel& model, const std::string& path) {
  OsntStreamWriter writer(path);
  if (!writer.ok()) return false;
  model.for_each_merged([&](const tracebuf::EventRecord& rec) { writer.append(rec); });
  return writer.finish(model.meta(), model.tasks());
}

TraceModel read_trace_file(const std::string& path) {
  OsntReader reader(path);
  return reader.read_all();
}

// ---------------------------------------------------------------------------
// OsntStreamWriter — the chunk-indexed layout, written incrementally.
// ---------------------------------------------------------------------------

OsntStreamWriter::OsntStreamWriter(const std::string& path, std::size_t chunk_records)
    : file_(std::fopen(path.c_str(), "wb")), chunk_records_(chunk_records) {
  // Caller API precondition, not decoded input — assert is the right tier.
  OSN_ASSERT_MSG(chunk_records_ >= 1, "chunk must hold at least one record");
  if (file_ == nullptr) {
    failed_ = true;
    return;
  }
  std::vector<std::uint8_t> header;
  put_varint(header, osnt::kMagic);
  put_varint(header, osnt::kVersionChunked);
  write_bytes(header.data(), header.size());
}

OsntStreamWriter::~OsntStreamWriter() {
  if (file_ == nullptr) return;
  if (!finished_) {
    // Best-effort truncation sentinel: flush what we have and mark the file
    // so the reader reports "truncated" instead of failing to parse. The
    // metadata footer is unavailable (finish() never ran), so footer_offset
    // is written as 0 and the truncated flag is set.
    flush_chunk();
    std::vector<std::uint8_t> term;
    put_varint(term, 0);
    write_bytes(term.data(), term.size());
    write_index_and_trailer(/*footer_offset=*/0, /*with_aggregates=*/false);
  }
  std::fclose(file_);
}

void OsntStreamWriter::set_aggregator(std::unique_ptr<ChunkAggregator> agg) {
  OSN_ASSERT_MSG(records_ == 0, "set_aggregator after append");
  aggregator_ = std::move(agg);
}

void OsntStreamWriter::write_bytes(const void* data, std::size_t n) {
  if (file_ == nullptr || n == 0) return;
  if (std::fwrite(data, 1, n, file_) != n) failed_ = true;
  file_pos_ += n;
}

void OsntStreamWriter::append(const tracebuf::EventRecord& rec) {
  OSN_DASSERT_MSG(!finished_, "append after finish");
  if (rec.cpu >= cpus_.size()) cpus_.resize(rec.cpu + 1u);
  CpuCursor& cursor = cpus_[rec.cpu];
  OSN_DASSERT_MSG(rec.timestamp >= cursor.last_ts, "stream not time-ordered");
  // Per-chunk delta reset: a CPU's first record in a chunk carries its
  // absolute timestamp, so every chunk decodes independently (the basis of
  // parallel decode and windowed reads).
  const TimeNs base = cursor.in_chunk ? cursor.last_ts : 0;
  cursor.last_ts = rec.timestamp;
  cursor.in_chunk = true;
  // One bounded encode, one append: cpu u16 (3 bytes) + delta u64 (10) +
  // pid u32 (5) + event u16 (3) + arg u64 (10).
  constexpr std::size_t kMaxRecordBytes = 31;
  std::uint8_t buf[kMaxRecordBytes];
  std::uint8_t* end = varint_encode(buf, rec.cpu);
  end = varint_encode(end, rec.timestamp - base);
  end = varint_encode(end, rec.pid);
  end = varint_encode(end, rec.event);
  end = varint_encode(end, rec.arg);
  chunk_buf_.insert(chunk_buf_.end(), buf, end);
  if (in_chunk_ == 0) cur_.t_first = rec.timestamp;
  cur_.t_last = rec.timestamp;
  cur_.cpu_mask |= 1ULL << std::min<std::uint32_t>(rec.cpu, 63);
  if (aggregator_) aggregator_->on_record(rec);
  ++in_chunk_;
  ++records_;
  if (in_chunk_ >= chunk_records_) flush_chunk();
}

void OsntStreamWriter::flush_chunk() {
  if (in_chunk_ == 0 || file_ == nullptr) return;
  cur_.offset = file_pos_;
  cur_.records = in_chunk_;
  cur_.payload_len = chunk_buf_.size();

  std::vector<std::uint8_t> header;
  put_varint(header, in_chunk_);
  put_varint(header, chunk_buf_.size());
  write_bytes(header.data(), header.size());
  write_bytes(chunk_buf_.data(), chunk_buf_.size());
  std::vector<std::uint8_t> crc;
  osnt::put_u32le(crc, crc32(chunk_buf_.data(), chunk_buf_.size()));
  write_bytes(crc.data(), crc.size());
  index_.push_back(cur_);
  cur_ = ChunkEntry{};
  for (CpuCursor& cursor : cpus_) cursor.in_chunk = false;
  if (aggregator_) {
    osnt::put_aggregate(agg_blobs_, aggregator_->take_chunk());
    ++agg_chunks_;
  }
  chunk_buf_.clear();
  in_chunk_ = 0;
}

void OsntStreamWriter::write_index_and_trailer(std::uint64_t footer_offset,
                                               bool with_aggregates) {
  const std::uint64_t index_offset = file_pos_;
  std::vector<std::uint8_t> idx;
  put_varint(idx, index_.size());
  for (const ChunkEntry& e : index_) {
    put_varint(idx, e.offset);
    put_varint(idx, e.records);
    put_varint(idx, e.payload_len);
    put_varint(idx, e.t_first);
    put_varint(idx, e.t_last - e.t_first);
    put_varint(idx, e.cpu_mask);
  }
  osnt::put_u32le(idx, crc32(idx.data(), idx.size()));
  if (with_aggregates) {
    // Optional pre-aggregate block after the entries CRC; agg_blobs_ already
    // holds the per-chunk blobs plus the tail blob (finish() appends it).
    const std::size_t agg_begin = idx.size();
    osnt::put_u32le(idx, osnt::kAggMagic);
    put_varint(idx, index_.size());
    idx.insert(idx.end(), agg_blobs_.begin(), agg_blobs_.end());
    osnt::put_u32le(idx, crc32(idx.data() + agg_begin, idx.size() - agg_begin));
  }
  write_bytes(idx.data(), idx.size());

  std::vector<std::uint8_t> trailer;
  osnt::put_u64le(trailer, index_offset);
  osnt::put_u64le(trailer, footer_offset);
  osnt::put_u32le(trailer, footer_offset == 0 ? osnt::kFlagTruncated : 0);
  osnt::put_u32le(trailer, osnt::kTrailerMagic);
  write_bytes(trailer.data(), trailer.size());
}

bool OsntStreamWriter::finish(const TraceMeta& meta, const std::map<Pid, TaskInfo>& tasks) {
  if (finished_) return ok();
  finished_ = true;
  if (file_ == nullptr) return false;
  flush_chunk();
  bool with_aggregates = false;
  if (aggregator_ && agg_chunks_ == index_.size()) {
    // The tail blob covers intervals only closed by end-of-trace. A nullopt
    // tail is the aggregator's veto (stream not well-formed for its model):
    // the file is still written, just without the aggregate block.
    if (std::optional<ChunkAggregate> tail = aggregator_->take_tail(meta)) {
      osnt::put_aggregate(agg_blobs_, *tail);
      with_aggregates = true;
    }
  }
  std::vector<std::uint8_t> footer;
  put_varint(footer, 0);  // chunk terminator
  const std::uint64_t footer_offset = file_pos_ + footer.size();
  osnt::put_meta_and_tasks(footer, meta, tasks);
  osnt::put_drain(footer, meta.drain);
  write_bytes(footer.data(), footer.size());
  write_index_and_trailer(footer_offset, with_aggregates);
  if (std::fclose(file_) != 0) failed_ = true;
  file_ = nullptr;
  return !failed_;
}

}  // namespace osn::trace
