#include "monitor/rolling.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "export/index_summary.hpp"

namespace osn::monitor {

namespace fs = std::filesystem;

namespace {

/// Parses "seg-000123.osnt" / "agg-000123.osnt"; false for anything else.
bool parse_segment_name(const std::string& name, std::uint64_t& seq, bool& compacted) {
  const bool seg = name.rfind("seg-", 0) == 0;
  const bool agg = name.rfind("agg-", 0) == 0;
  if (!seg && !agg) return false;
  const std::string suffix = ".osnt";
  if (name.size() <= 4 + suffix.size() || name.substr(name.size() - suffix.size()) != suffix)
    return false;
  const std::string digits = name.substr(4, name.size() - 4 - suffix.size());
  if (digits.empty()) return false;
  seq = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  compacted = agg;
  return true;
}

}  // namespace

RollingView::RollingView(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    Seg seg;
    if (!parse_segment_name(name, seg.seq, seg.compacted)) continue;
    seg.path = entry.path().string();
    segs_.push_back(std::move(seg));
  }
  if (ec) throw trace::TraceReadError("cannot scan segment directory " + dir, 0);
  std::sort(segs_.begin(), segs_.end(),
            [](const Seg& a, const Seg& b) { return a.seq < b.seq; });
  for (Seg& seg : segs_) seg.reader = std::make_unique<trace::OsntReader>(seg.path);
  if (!segs_.empty()) {
    meta_ = segs_.front().reader->meta();
    meta_.end_ns = segs_.back().reader->meta().end_ns;
    tasks_ = segs_.front().reader->tasks();
  }
}

std::string RollingView::run_merged() {
  // Fold every file's block into one summary. Tails become extra "chunk"
  // entries — aggregation is associative, so the grouping is irrelevant.
  trace::IndexSummary all;
  for (const Seg& seg : segs_) {
    const std::optional<trace::IndexSummary>& summary = seg.reader->index_summary();
    for (const trace::ChunkAggregate& c : summary->chunks) all.chunks.push_back(c);
    all.chunks.push_back(summary->tail);
  }
  std::optional<exporter::SummaryData> data =
      exporter::index_summary_data(all, meta_, tasks_);
  if (!data) return {};
  return exporter::render_summary(*data);
}

std::string RollingView::run(const query::Plan& plan_in, ThreadPool* pool) {
  if (segs_.empty())
    throw query::PlanError(query::PlanError::Kind::kTraceMismatch, "empty segment store");

  // Full-cover windows collapse exactly like the engine's canonicalize: the
  // segment metadata spans the whole stream by construction.
  query::Plan plan = plan_in;
  if (!(plan.t0 == 0 && plan.t1 == kTimeInfinity) && plan.t0 <= meta_.start_ns &&
      plan.t1 >= meta_.end_ns) {
    plan.t0 = 0;
    plan.t1 = kTimeInfinity;
  }
  query::validate_plan(plan);

  if (query::fast_path_eligible(plan)) {
    const bool all_clean = std::all_of(segs_.begin(), segs_.end(), [](const Seg& seg) {
      return seg.reader->index_summary().has_value();
    });
    if (all_clean) {
      std::string merged = run_merged();
      if (!merged.empty()) return merged;
    }
  }

  // Record path: compacted segments have no records left. A window that
  // needs any of their span cannot be answered at full fidelity anymore.
  // (The end bound is inclusive — the boundary record of a segment carries
  // the segment's end timestamp.)
  for (const Seg& seg : segs_) {
    if (!seg.compacted) continue;
    const trace::TraceMeta& m = seg.reader->meta();
    if (plan.t0 <= m.end_ns && plan.t1 > m.start_ns)
      throw query::PlanError(query::PlanError::Kind::kTraceMismatch,
                             "window covers compacted segments (records downsampled away)");
  }

  std::vector<std::vector<tracebuf::EventRecord>> per_cpu(meta_.n_cpus);
  for (const Seg& seg : segs_) {
    if (seg.compacted) continue;
    trace::TraceModel model = seg.reader->read_all(pool);
    for (std::size_t cpu = 0; cpu < model.cpu_count() && cpu < per_cpu.size(); ++cpu) {
      const auto& events = model.cpu_events(static_cast<CpuId>(cpu));
      per_cpu[cpu].insert(per_cpu[cpu].end(), events.begin(), events.end());
    }
  }
  const trace::TraceModel model(meta_, std::move(per_cpu), tasks_);
  return query::render_plan(model, plan);
}

}  // namespace osn::monitor
