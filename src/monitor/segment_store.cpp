#include "monitor/segment_store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/assert.hpp"
#include "trace/osnt_reader.hpp"

namespace osn::monitor {

namespace fs = std::filesystem;

namespace {

/// "seg-000001" style stem: fixed width keeps lexicographic and numeric
/// order identical, so directory listings read in segment order.
std::string seq_stem(const char* prefix, std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s-%06llu", prefix,
                static_cast<unsigned long long>(seq));
  return buf;
}

/// ChunkAggregator that contributes nothing per chunk and a pre-merged tail
/// at finish(): the writer-side shape of a compacted summary segment (zero
/// records, one aggregate blob holding a whole segment's totals).
class PrebuiltTailAggregator final : public trace::ChunkAggregator {
 public:
  explicit PrebuiltTailAggregator(trace::ChunkAggregate tail) : tail_(std::move(tail)) {}

  void on_record(const tracebuf::EventRecord&) override {}
  trace::ChunkAggregate take_chunk() override { return {}; }
  std::optional<trace::ChunkAggregate> take_tail(const trace::TraceMeta&) override {
    return tail_;
  }

 private:
  trace::ChunkAggregate tail_;
};

}  // namespace

SegmentStore::SegmentStore(StoreOptions opts, trace::TraceMeta template_meta,
                           std::map<Pid, trace::TaskInfo> tasks)
    : opts_(std::move(opts)),
      template_meta_(std::move(template_meta)),
      tasks_(std::move(tasks)) {
  std::error_code ec;
  fs::create_directories(opts_.dir, ec);
  if (ec) failed_ = true;
}

SegmentStore::~SegmentStore() {
  // Best effort: a store destroyed mid-stream seals what it can. A crash
  // that skips this leaves the active `.part` file carrying the v3
  // truncation sentinel instead.
  if (!finished_) finish(last_ts_);
}

void SegmentStore::open_segment(TimeNs start_ns) {
  const std::string stem = seq_stem("seg", next_seq_++);
  final_name_ = stem + ".osnt";
  final_path_ = opts_.dir + "/" + final_name_;
  part_path_ = final_path_ + ".part";
  seg_start_ = start_ns;
  writer_ = std::make_unique<trace::OsntStreamWriter>(part_path_, opts_.chunk_records);
  auto agg = std::make_unique<noise::IndexAggregator>();
  if (opts_.on_noise) agg->set_observer(opts_.on_noise);
  agg_ = agg.get();
  writer_->set_aggregator(std::move(agg));
  if (!writer_->ok()) failed_ = true;
}

void SegmentStore::seal_active(TimeNs end_ns, bool clean_cut) {
  OSN_ASSERT(writer_ != nullptr);
  // A segment whose cut is not provably quiescent on both sides gets no
  // aggregate block: its per-segment totals would not merge to the uncut
  // trace's, and the missing block is what tells merged-summary readers to
  // fall back to record decode.
  if (!clean_cut) agg_->poison();

  SegmentInfo info;
  info.seq = next_seq_ - 1;
  info.name = final_name_;
  info.path = final_path_;
  info.start_ns = seg_start_;
  info.end_ns = end_ns;
  info.records = writer_->records_written();
  info.clean_cut = clean_cut;

  trace::TraceMeta meta = template_meta_;
  meta.start_ns = seg_start_;
  meta.end_ns = end_ns;
  if (!writer_->finish(meta, tasks_)) failed_ = true;
  info.bytes = writer_->bytes_written();
  writer_.reset();
  agg_ = nullptr;

  if (std::rename(part_path_.c_str(), final_path_.c_str()) != 0) {
    failed_ = true;
    return;
  }
  ++stats_.segments_sealed;
  stats_.full_res_bytes += info.bytes;
  sealed_.push_back(std::move(info));
}

void SegmentStore::append(const tracebuf::EventRecord& rec) {
  OSN_DASSERT_MSG(!finished_, "append after finish");
  if (!writer_) {
    // First segment starts at the stream's nominal start so the union of
    // segment spans reproduces the uncut trace's metadata exactly.
    open_segment(first_segment_ ? std::min(template_meta_.start_ns, rec.timestamp)
                                : rec.timestamp);
    first_segment_ = false;
  }
  writer_->append(rec);
  if (!writer_->ok()) failed_ = true;
  last_ts_ = rec.timestamp;
  ++stats_.records;
  maybe_rotate(rec);
}

void SegmentStore::maybe_rotate(const tracebuf::EventRecord& rec) {
  const DurNs elapsed = rec.timestamp - seg_start_;
  const std::uint64_t bytes = writer_->bytes_written();
  const bool time_due = opts_.segment_ns > 0 && elapsed >= opts_.segment_ns;
  const bool bytes_due = opts_.segment_bytes > 0 && bytes >= opts_.segment_bytes;
  if (!time_due && !bytes_due) return;

  // Halved comparisons instead of doubled thresholds: immune to overflow on
  // absurd --segment-ns values.
  const bool overdue2 = (opts_.segment_ns > 0 && elapsed / 2 >= opts_.segment_ns) ||
                        (opts_.segment_bytes > 0 && bytes / 2 >= opts_.segment_bytes);
  const bool overdue4 = (opts_.segment_ns > 0 && elapsed / 4 >= opts_.segment_ns) ||
                        (opts_.segment_bytes > 0 && bytes / 4 >= opts_.segment_bytes);

  bool rotate = false;
  bool boundary_clean = false;
  if (agg_->quiescent()) {
    rotate = true;
    boundary_clean = true;
  } else if (overdue2 && agg_->stacks_empty()) {
    // Only preemption/comm state spans this cut; segments stay individually
    // well-formed but their aggregates no longer merge exactly.
    rotate = true;
  } else if (overdue4) {
    // Hard cut mid-interval: the next segment starts with unmatched exits
    // and its aggregator goes dirty, but record fidelity is preserved and
    // segment size stays bounded.
    rotate = true;
  }
  if (!rotate) return;

  if (!boundary_clean) ++stats_.rotations_forced;
  const bool clean_cut = boundary_clean && !tainted_start_;
  seal_active(rec.timestamp, clean_cut);
  tainted_start_ = !boundary_clean;
  open_segment(rec.timestamp);
  enforce_retention();
}

void SegmentStore::finish(TimeNs end_ns) {
  if (finished_) return;
  finished_ = true;
  if (writer_) {
    // End-of-stream closes match the uncut trace's own tail handling, so
    // the final segment is clean whenever its start was.
    seal_active(std::max(end_ns, last_ts_), !tainted_start_);
  }
  enforce_retention();
}

void SegmentStore::enforce_retention() {
  if (opts_.retain_ns == 0 && opts_.retain_bytes == 0) return;
  if (sealed_.empty()) return;
  const TimeNs latest = sealed_.back().end_ns;

  // Pass 1: decide which full-resolution segments expire. The most recently
  // sealed one is always kept so the "current" window stays queryable at
  // full resolution.
  std::size_t last_full = sealed_.size();
  for (std::size_t i = sealed_.size(); i-- > 0;) {
    if (!sealed_[i].compacted) {
      last_full = i;
      break;
    }
  }
  std::uint64_t full_bytes = 0;
  for (const SegmentInfo& s : sealed_)
    if (!s.compacted) full_bytes += s.bytes;

  std::vector<SegmentInfo> kept;
  kept.reserve(sealed_.size());
  for (std::size_t i = 0; i < sealed_.size(); ++i) {
    SegmentInfo& seg = sealed_[i];
    bool expired = false;
    if (!seg.compacted && i != last_full) {
      const bool time_expired = opts_.retain_ns > 0 && latest > opts_.retain_ns &&
                                seg.end_ns <= latest - opts_.retain_ns;
      const bool bytes_expired =
          opts_.retain_bytes > 0 && full_bytes > opts_.retain_bytes;
      expired = time_expired || bytes_expired;
    }
    if (!expired) {
      kept.push_back(std::move(seg));
      continue;
    }
    full_bytes -= seg.bytes;
    stats_.full_res_bytes -= seg.bytes;
    const std::string original = seg.path;
    bool keep_compacted = false;
    // Compaction only preserves aggregates that merge exactly; a segment
    // cut at a non-quiescent boundary is deleted outright.
    if (opts_.compact && seg.clean_cut) {
      if (compact_segment(seg)) {
        ++stats_.compactions;
        keep_compacted = true;
      } else {
        ++stats_.compaction_failures;
      }
    }
    std::error_code ec;
    fs::remove(original, ec);
    if (keep_compacted) {
      kept.push_back(std::move(seg));
    } else {
      ++stats_.segments_deleted;
    }
  }
  sealed_ = std::move(kept);
}

bool SegmentStore::compact_segment(SegmentInfo& seg) {
  try {
    trace::OsntReader reader(seg.path);
    trace::ChunkAggregate merged;
    bool have = false;
    if (reader.index_summary()) {
      // O(index) path: fold the stored per-chunk blobs; no record decode.
      const trace::IndexSummary& summary = *reader.index_summary();
      for (const trace::ChunkAggregate& c : summary.chunks) trace::merge_aggregate(merged, c);
      trace::merge_aggregate(merged, summary.tail);
      have = true;
    } else {
      // No intact block (e.g. a veto at seal): rebuild from records once,
      // trading one decode for a durable summary.
      noise::IndexAggregator agg;
      reader.for_each([&agg](const tracebuf::EventRecord& rec) { agg.on_record(rec); });
      trace::TraceMeta meta = template_meta_;
      meta.start_ns = seg.start_ns;
      meta.end_ns = seg.end_ns;
      if (std::optional<trace::ChunkAggregate> tail = agg.take_tail(meta)) {
        merged = std::move(*tail);
        have = true;
      }
    }
    if (!have) return false;

    const std::string stem = seq_stem("agg", seg.seq);
    const std::string name = stem + ".osnt";
    const std::string path = opts_.dir + "/" + name;
    const std::string part = path + ".part";
    {
      trace::OsntStreamWriter writer(part, opts_.chunk_records);
      writer.set_aggregator(std::make_unique<PrebuiltTailAggregator>(std::move(merged)));
      trace::TraceMeta meta = template_meta_;
      meta.start_ns = seg.start_ns;
      meta.end_ns = seg.end_ns;
      if (!writer.finish(meta, tasks_)) {
        std::error_code ec;
        fs::remove(part, ec);
        return false;
      }
    }
    if (std::rename(part.c_str(), path.c_str()) != 0) return false;
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    seg.name = name;
    seg.path = path;
    seg.bytes = ec ? 0 : static_cast<std::uint64_t>(size);
    seg.records = 0;
    seg.compacted = true;
    return true;
  } catch (const trace::TraceReadError&) {
    return false;
  }
}

}  // namespace osn::monitor
