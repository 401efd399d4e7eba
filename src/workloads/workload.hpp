// Workload framework: a Workload bundles node configuration, calibrated
// activity models and task setup; run_workload() boots the simulated node,
// traces it with the LTTng-style sink, and returns the offline TraceModel —
// the exact pre-processing pipeline of the paper (instrument statically,
// analyze offline).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "kernel/kernel.hpp"
#include "trace/sink.hpp"
#include "trace/trace_model.hpp"
#include "tracebuf/consumer.hpp"

namespace osn::workloads {

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  /// Node configuration (CPU count, tick rate, seed is overridden by run).
  virtual kernel::NodeConfig config() const;
  /// Calibrated per-activity duration models.
  virtual kernel::ActivityModels models() const = 0;
  /// Spawns tasks/regions on the kernel. Called before start().
  virtual void setup(kernel::Kernel& kernel) = 0;
  /// Hard stop for the simulation (safety net; programs normally exit).
  virtual TimeNs max_time() const { return sec(600); }
};

struct RunResult {
  trace::TraceModel trace;
  std::uint64_t engine_events = 0;
};

/// Runs a workload to completion under the given seed and returns the trace.
RunResult run_workload(Workload& workload, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Live pipeline: trace through the per-CPU lock-free channels, drained by a
// concurrent consumer daemon while the simulation runs. Nothing accumulates
// in memory beyond the channel capacity plus the consumer's merge staging —
// the caller's on_record hook streams the merged record sequence out (to a
// chunked OSNT file, an incremental analysis, or both). The drain's counters
// land in one place, the returned meta.drain, which the OSNT footer stores.
// ---------------------------------------------------------------------------

struct LiveOptions {
  /// Per-CPU channel capacity; must be a power of two >= 2. The consumer
  /// daemon wakes at least every 50 us, far sooner than one CPU's 8 Ki
  /// records fill, so a larger ring only adds cold pages to touch.
  std::size_t per_cpu_capacity = 1u << 13;
  /// Records per consumer batch pop.
  std::size_t batch_size = tracebuf::kDefaultBatchSize;
  /// Receives every record in global (timestamp, cpu) order — the identical
  /// sequence drain_merged()/TraceModel::merged() would produce offline.
  /// Called on the consumer thread, concurrently with the simulation.
  std::function<void(const tracebuf::EventRecord&)> on_record;
};

struct LiveRunResult {
  trace::TraceMeta meta;  ///< drain counters filled in
  std::map<Pid, trace::TaskInfo> tasks;
  std::uint64_t engine_events = 0;
};

/// Runs a workload with the live consumer-daemon pipeline. Deterministic:
/// the record sequence delivered to on_record is identical to the offline
/// run_workload trace for the same seed, and zero-loss (backpressure blocks
/// the producer rather than discarding).
LiveRunResult run_workload_live(Workload& workload, std::uint64_t seed,
                                const LiveOptions& options);

}  // namespace osn::workloads
