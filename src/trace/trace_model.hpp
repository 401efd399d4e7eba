// In-memory representation of a completed trace, the input to all offline
// analysis (noise intervals, statistics, exporters).
//
// A TraceModel bundles the per-CPU event streams with the task registry
// (which pids are application ranks vs. kernel daemons — the distinction at
// the heart of the paper's noise definition) and node metadata (CPU count,
// tick period, trace window).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "trace/schema.hpp"
#include "tracebuf/record.hpp"

namespace osn::trace {

struct TaskInfo {
  Pid pid = 0;
  std::string name;
  bool is_app = false;            ///< an application (HPC rank) process
  bool is_kernel_thread = false;  ///< kernel daemon (rpciod, events, ...)

  friend bool operator==(const TaskInfo&, const TaskInfo&) = default;
};

/// Observability counters from a live (consumer-daemon) tracing run. All
/// zero for offline-drained traces; persisted by the streamed OSNT format
/// and surfaced by `osn-analyze info`.
struct DrainStats {
  std::uint64_t records = 0;          ///< records delivered by the consumer
  std::uint64_t batches = 0;          ///< non-empty batch pops
  std::uint64_t max_batch = 0;        ///< largest single batch
  std::uint64_t lost = 0;             ///< records discarded at full channels
  std::uint64_t overwritten = 0;      ///< records reclaimed in overwrite mode
  std::uint64_t producer_stalls = 0;  ///< backpressure waits at the producer

  friend bool operator==(const DrainStats&, const DrainStats&) = default;
};

struct TraceMeta {
  std::uint16_t n_cpus = 0;
  DurNs tick_period_ns = 0;  ///< periodic timer interval (10 ms at 100 Hz)
  TimeNs start_ns = 0;
  TimeNs end_ns = 0;
  std::string workload;
  DrainStats drain;  ///< live-drain counters (zero for offline traces)

  friend bool operator==(const TraceMeta&, const TraceMeta&) = default;
};

class TraceModel {
 public:
  TraceModel() = default;
  TraceModel(TraceMeta meta, std::vector<std::vector<tracebuf::EventRecord>> per_cpu,
             std::map<Pid, TaskInfo> tasks);

  const TraceMeta& meta() const { return meta_; }
  std::uint16_t cpu_count() const { return meta_.n_cpus; }
  DurNs duration() const { return meta_.end_ns - meta_.start_ns; }

  const std::vector<tracebuf::EventRecord>& cpu_events(CpuId cpu) const {
    return per_cpu_[cpu];
  }
  std::size_t total_events() const;

  /// Measured memory footprint: the object itself plus every heap block it
  /// owns (per-CPU stream capacity, task names, workload string, map nodes).
  /// This is what byte-budgeted caches charge — an event-count estimate
  /// under-counts per-CPU array and task-table overhead on wide traces.
  std::size_t footprint_bytes() const;

  const std::map<Pid, TaskInfo>& tasks() const { return tasks_; }
  const TaskInfo* find_task(Pid pid) const;
  bool is_app(Pid pid) const;
  std::string task_name(Pid pid) const;

  /// All application pids, sorted.
  std::vector<Pid> app_pids() const;

  /// Merged view of all CPU streams ordered by (timestamp, cpu).
  std::vector<tracebuf::EventRecord> merged() const;

  /// Visits every record in merged() order without copying: a k-way cursor
  /// merge of the per-CPU streams, each already time-ordered. Ties on
  /// (timestamp, cpu) keep stream order, as in a stable sort. Writers replay
  /// a model through this, so a replay costs no copy and no sort.
  template <class Fn>
  void for_each_merged(Fn&& fn) const {
    const auto before = [](const tracebuf::EventRecord& a, const tracebuf::EventRecord& b) {
      return a.timestamp < b.timestamp || (a.timestamp == b.timestamp && a.cpu < b.cpu);
    };
    struct Cursor {
      const tracebuf::EventRecord* at;
      const tracebuf::EventRecord* end;
    };
    std::vector<Cursor> live;  // non-empty streams, in cpu order
    for (const auto& s : per_cpu_)
      if (!s.empty()) live.push_back({s.data(), s.data() + s.size()});
    while (!live.empty()) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < live.size(); ++c)
        if (before(*live[c].at, *live[best].at)) best = c;
      // The smallest head among the other streams bounds a run the best
      // stream emits without another scan. A tie ends the run, and the next
      // scan picks the earlier stream, as a stable sort would.
      const tracebuf::EventRecord* limit = nullptr;
      for (std::size_t c = 0; c < live.size(); ++c)
        if (c != best && (limit == nullptr || before(*live[c].at, *limit))) limit = live[c].at;
      Cursor& cur = live[best];
      do {
        fn(*cur.at);
      } while (++cur.at != cur.end && (limit == nullptr || before(*cur.at, *limit)));
      if (cur.at == cur.end) live.erase(live.begin() + static_cast<std::ptrdiff_t>(best));
    }
  }

  /// Validates per-CPU timestamp monotonicity and entry/exit pairing
  /// discipline; returns a human-readable problem description or empty.
  std::string validate() const;

  friend bool operator==(const TraceModel&, const TraceModel&) = default;

 private:
  TraceMeta meta_;
  std::vector<std::vector<tracebuf::EventRecord>> per_cpu_;
  std::map<Pid, TaskInfo> tasks_;
};

}  // namespace osn::trace
