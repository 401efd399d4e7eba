// Incremental per-activity statistics over a live record stream.
//
// The offline NoiseAnalysis needs the whole TraceModel in memory; the live
// consumer-daemon pipeline instead feeds records one at a time into this
// sink over build_intervals' NestingStack (interval_scanner.hpp), in O(max
// nesting depth) memory per CPU — the interval list is never materialized.
//
// Scope: kernel entry/exit activities (the paper's Tables I-VI). Derived
// preemption intervals and the runnable filter need the task registry, which
// is only known at end of run; those remain offline analyses.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "noise/analysis.hpp"
#include "noise/interval_scanner.hpp"
#include "tracebuf/record.hpp"

namespace osn::noise {

class StreamingStats {
 public:
  /// Feed the next record; only each CPU's own order matters. Point events
  /// are counted but open no interval. A record that breaks the pairing
  /// throws trace::TraceReadError with the offline scan's text.
  void consume(const tracebuf::EventRecord& rec);

  /// Self-time statistics for one activity, matching
  /// NoiseAnalysis::activity_stats under default options once the stream is
  /// complete. `duration`/`n_cpus` come from the run's TraceMeta.
  EventStats activity_stats(ActivityKind kind, DurNs duration, std::uint16_t n_cpus) const;

  std::uint64_t consumed() const { return consumed_; }
  /// Entry events whose exit has not arrived yet (0 once a well-formed
  /// stream ends).
  std::size_t open_frames() const;

 private:
  struct NoPayload {};
  std::vector<NestingStack<NoPayload>> stacks_;  ///< per-cpu, grown on demand
  /// Exact integer accumulators — the same reduce the offline analyzer
  /// uses, so live and offline tables agree bit-for-bit.
  ActivityAccumArray accums_;
  std::uint64_t consumed_ = 0;
};

}  // namespace osn::noise
