// Index-resident pre-aggregates: per-chunk summaries stored next to the v3
// chunk index, so summary queries can answer from the index alone.
//
// EXPERIMENTS.md shows `summary` dominated by record decode even though its
// output is a handful of exact integer accumulators. The fix mirrors the
// long-term-monitoring literature: keep cheap aggregates beside the raw event
// store. OsntStreamWriter can host a ChunkAggregator that observes every
// appended record; at each chunk flush the aggregator emits a ChunkAggregate
// (per-activity-class duration accumulators, per-task preemption and noise
// accumulators, per-CPU event counts), and finish() appends the collected
// blobs — plus one "tail" blob for intervals that only close at end-of-trace
// — to the footer index region, CRC-protected and fully backward/forward
// compatible (old files simply have no aggregate block; damaged blocks are
// dropped and readers fall back to record decode).
//
// Layering: the trace layer stores the aggregates as opaque numeric class
// and category ids. The noise layer owns their meaning (ActivityKind /
// NoiseCategory) through its IndexAggregator implementation and the
// exporter's index-only summary path; trace never depends on noise.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "trace/trace_model.hpp"
#include "tracebuf/record.hpp"

namespace osn::trace {

/// Exact integer accumulator over durations, shared by the analysis and the
/// stored aggregates, so merged aggregates reduce to byte-identical
/// statistics. Associative merge; min is the usual max-sentinel when
/// count == 0.
struct AggAccum {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();

  void add(std::uint64_t v) {
    ++count;
    sum += v;
    if (v > max) max = v;
    if (v < min) min = v;
  }
  void merge(const AggAccum& o) {
    count += o.count;
    sum += o.sum;
    if (o.max > max) max = o.max;
    if (o.min < min) min = o.min;
  }
  friend bool operator==(const AggAccum&, const AggAccum&) = default;
};

/// Pre-aggregates of one chunk (or of the end-of-trace tail). All lists are
/// sparse (only non-zero entries) and sorted by key, so the encoding is
/// deterministic.
struct ChunkAggregate {
  /// Per activity-class accumulator over charged (self) durations of the
  /// kernel intervals closing in this chunk. `cls` is opaque to trace.
  struct ClassAccum {
    std::uint64_t cls = 0;
    AggAccum acc;
    friend bool operator==(const ClassAccum&, const ClassAccum&) = default;
  };
  /// Per-task preemption intervals closing in this chunk: the full
  /// accumulator feeds activity statistics; the comm-excluded subset
  /// (cex_*: intervals starting outside the task's communication windows)
  /// feeds the noise list. Application filtering happens at read time.
  struct PreAccum {
    std::uint64_t task = 0;
    AggAccum acc;
    std::uint64_t cex_count = 0;
    std::uint64_t cex_sum = 0;
    friend bool operator==(const PreAccum&, const PreAccum&) = default;
  };
  /// Per (task, category) noise-qualifying kernel intervals closing in this
  /// chunk (requested-service and comm-window intervals already excluded;
  /// application filtering happens at read time). `cat` is opaque to trace.
  struct NoiseAccum {
    std::uint64_t task = 0;
    std::uint64_t cat = 0;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    friend bool operator==(const NoiseAccum&, const NoiseAccum&) = default;
  };
  struct CpuCount {
    std::uint64_t cpu = 0;
    std::uint64_t count = 0;
    friend bool operator==(const CpuCount&, const CpuCount&) = default;
  };

  std::vector<ClassAccum> classes;
  std::vector<PreAccum> preempt;
  std::vector<NoiseAccum> noise;
  std::vector<CpuCount> cpu_events;

  friend bool operator==(const ChunkAggregate&, const ChunkAggregate&) = default;
};

/// The decoded aggregate block of a v3 file: one ChunkAggregate per index
/// chunk plus the end-of-trace tail. Exposed by OsntReader::index_summary().
struct IndexSummary {
  std::vector<ChunkAggregate> chunks;
  ChunkAggregate tail;
};

/// Merges `from` into `into` (sparse sorted lists merged by key, accumulators
/// added). Aggregation is associative and order-independent, so folding a
/// file's chunks + tail in any grouping yields the same totals — the identity
/// the segment store's downsampling compaction relies on (many chunk blobs
/// collapse to one).
void merge_aggregate(ChunkAggregate& into, const ChunkAggregate& from);

/// Writer-side hook: observes every appended record and emits aggregates at
/// chunk boundaries. Implementations must be deterministic functions of the
/// record sequence (the index-only summary's byte-identity contract).
class ChunkAggregator {
 public:
  virtual ~ChunkAggregator() = default;

  /// Called once per appended record, in append order.
  virtual void on_record(const tracebuf::EventRecord& rec) = 0;

  /// Called at each chunk flush, after every record of the chunk was
  /// observed: returns the chunk's aggregates and resets for the next chunk.
  virtual ChunkAggregate take_chunk() = 0;

  /// Called once from finish() with the final metadata: aggregates for
  /// intervals that only close at end-of-trace (meta.end_ns). Returning
  /// nullopt vetoes the whole aggregate block (e.g. the stream turned out
  /// not to be well-formed) — the file is still written, just without
  /// pre-aggregates.
  virtual std::optional<ChunkAggregate> take_tail(const TraceMeta& meta) = 0;
};

}  // namespace osn::trace
