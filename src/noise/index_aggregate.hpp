// Write-time builder of the OSNT v3 index-resident pre-aggregates.
//
// IndexAggregator is the noise layer's implementation of
// trace::ChunkAggregator: a sink over the shared interval state machine
// (interval_scanner.hpp — the per-CPU NestingStack and the TaskTracker the
// offline analyzer runs too), fed while OsntStreamWriter appends records.
// At each chunk flush it emits exact integer accumulators for the intervals
// that CLOSED in that chunk; finish() adds a tail blob for intervals only
// closed by end-of-trace. The exporter's index-only summary path
// (index_summary.hpp) merges these blobs back into byte-identical summary
// output under the default AnalysisOptions — that equivalence is this
// class's contract, and the property tests in tests/test_index_summary.cpp
// keep it binding.
//
// Attribution note: intervals land in the chunk where they close, not where
// they start, so whole-file merges are exact while partial-chunk windows are
// not — which is why readers only take the index-only path for queries
// covering the full trace span.
//
// Application filtering happens at READ time: the task table is unknown
// until finish(), so preemption and noise accumulators are kept per task and
// the reader sums the application subset.
//
// The aggregator never aborts on a malformed stream: on any ScanFault, and
// on a re-entered communication window (the offline scan moves the window's
// start, which a streaming in-comm flag cannot represent exactly), it marks
// itself dirty and vetoes the whole block via take_tail() — the trace file
// is still written, readers just fall back to record decode.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/pid_map.hpp"
#include "common/types.hpp"
#include "noise/classify.hpp"
#include "noise/interval_scanner.hpp"
#include "trace/chunk_aggregate.hpp"

namespace osn::noise {

class IndexAggregator final : public trace::ChunkAggregator {
 public:
  /// Live-noise observer: fired as each noise-qualifying interval closes —
  /// kernel intervals outside comm windows (their category and charged self
  /// time) and comm-excluded preemptions (category kPreemption). The monitor
  /// daemon's baseline/alert pipeline taps this; take_tail()'s end-of-trace
  /// closes do NOT fire it (they are bookkeeping for the stored aggregates,
  /// not events the live stream observed).
  using NoiseObserver =
      std::function<void(Pid task, NoiseCategory cat, TimeNs end_ts, DurNs charged)>;

  void on_record(const tracebuf::EventRecord& rec) override;
  trace::ChunkAggregate take_chunk() override;
  std::optional<trace::ChunkAggregate> take_tail(const trace::TraceMeta& meta) override;

  void set_observer(NoiseObserver observer) { observer_ = std::move(observer); }

  /// External veto: take_tail() will return nullopt even though the stream
  /// itself is well-formed. The segment store poisons aggregators of
  /// segments cut at non-quiescent boundaries — their per-segment totals
  /// would be self-consistent but would NOT merge to the uncut trace's, and
  /// absence of the block is how downstream merge paths learn to fall back.
  /// Unlike damaged input, poisoning does not stop accumulation, so
  /// rotation gating via quiescent() keeps working.
  void poison() { poisoned_ = true; }

  /// No kernel interval open on any CPU. Weaker than quiescent(): a
  /// preempted or in-comm task may still span this point.
  bool stacks_empty() const;

  /// The stream is at an interval-free point: every kernel stack empty, no
  /// task preempted or inside a communication window, and the stream still
  /// well-formed. Cutting a segment here makes the per-segment aggregates
  /// merge exactly to the uncut trace's — the rotation gate of the segment
  /// store.
  bool quiescent() const;

 private:
  /// What a kernel frame needs at its exit: the task it charges, and whether
  /// that task was in a communication window at entry.
  struct Entry {
    Pid task = 0;
    bool in_comm = false;
  };
  static constexpr std::size_t kKinds = static_cast<std::size_t>(ActivityKind::kMaxKind);
  static constexpr std::size_t kCategories =
      static_cast<std::size_t>(NoiseCategory::kMaxCategory);
  /// One task's accumulators for the chunk in progress.
  struct TaskAccum {
    trace::AggAccum pre;          ///< preemptions closing in the chunk
    std::uint64_t cex_count = 0;  ///< ... of which started outside comm windows
    std::uint64_t cex_sum = 0;
    std::array<std::uint64_t, kCategories> noise_count{};  ///< noise intervals per category
    std::array<std::uint64_t, kCategories> noise_sum{};    ///< their charged time
  };

  void add_kernel(const NestingStack<Entry>::Closed& closed);
  void add_preemption(const Interval& iv, bool in_comm, bool notify);

  std::vector<NestingStack<Entry>> stacks_;  ///< per-cpu open kernel intervals
  TaskTracker tasks_;
  bool dirty_ = false;
  bool poisoned_ = false;
  NoiseObserver observer_;

  // The chunk in progress, as flat state; take_chunk() drains it into the
  // sorted sparse lists.
  std::array<trace::AggAccum, kKinds> classes_{};  ///< by ActivityKind
  PidMap<TaskAccum> task_accums_;
  std::vector<std::uint64_t> cpu_events_;  ///< by cpu, sized with stacks_
};

}  // namespace osn::noise
