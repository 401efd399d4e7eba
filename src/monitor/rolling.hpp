// Query execution over a rolling segment store: the planner route that
// makes a directory of segments answer the same plans as the one uncut
// trace they were cut from.
//
// Two paths, mirroring the engine's:
//  * merged fast path — a fast_path_eligible plan (full-span default
//    summary) folds EVERY file's pre-aggregate block (full-resolution
//    segments and compacted summary segments alike) into one IndexSummary
//    and renders it. Because rotation only cuts at quiescent points and
//    compaction preserves aggregate totals exactly, the document is
//    byte-identical to the uncut trace's index-only summary. Any segment
//    missing an intact block (forced cut, damage) falls through.
//  * record path — everything else concatenates the full-resolution
//    segments' records (per-CPU, in segment order — exactly the original
//    stream) under the combined metadata and hands the model to
//    query::render_plan, byte-identical to the engine on the uncut file.
//    Plans whose window needs records already compacted away throw
//    PlanError kTraceMismatch: the store has downsampled that history.
//
// Readers are opened once at construction (O(index) each); rescan by
// constructing a fresh view — the daemon's serve path goes through
// TraceCatalog instead, this class is the cross-segment analysis route
// (osn-analyze rolling, tests).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "query/engine.hpp"
#include "trace/osnt_reader.hpp"

namespace osn::monitor {

class RollingView {
 public:
  /// Scans `dir` for sealed segments ("seg-*.osnt" / "agg-*.osnt", in
  /// sequence order). Throws trace::TraceReadError when a segment fails to
  /// open; ignores foreign files and in-progress `.part` files.
  explicit RollingView(const std::string& dir);

  std::size_t segment_count() const { return segs_.size(); }
  const trace::TraceMeta& meta() const { return meta_; }

  /// Executes `plan` over the store. Throws query::PlanError as the engine
  /// would, plus kTraceMismatch when the plan needs compacted-away records.
  std::string run(const query::Plan& plan, ThreadPool* pool = nullptr);

 private:
  struct Seg {
    std::uint64_t seq = 0;
    std::string path;
    bool compacted = false;
    std::unique_ptr<trace::OsntReader> reader;
  };

  std::string run_merged();

  std::vector<Seg> segs_;
  trace::TraceMeta meta_;  ///< combined span (first segment start .. last end)
  std::map<Pid, trace::TaskInfo> tasks_;
};

}  // namespace osn::monitor
