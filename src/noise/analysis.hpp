// The LTTNG-NOISE offline analysis: from a raw trace to per-event noise.
//
// This is the paper's primary contribution. NoiseAnalysis
//  1. builds the interval set (entry/exit pairing with nested-event
//     resolution — self vs. inclusive time),
//  2. applies the noise definition: only kernel activity attributed to a
//     *runnable application process* counts ("we do not consider a kernel
//     interruption as noise if, when it occurs, a process is blocked waiting
//     for communication"), and syscalls are requested services,
//  3. produces per-activity statistics (freq ev/sec, avg/max/min ns —
//     Tables I-VI), duration histograms (Figs 4/6/8), the per-application
//     noise breakdown (Fig 3), and feeds the synthetic chart (Fig 1b).
//
// The AnalysisOptions ablation switches exist to *quantify* why the two
// design decisions matter: disabling nesting resolution double-counts
// nested interrupts; disabling the runnable filter charges applications for
// kernel work done while they were blocked.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "noise/classify.hpp"
#include "noise/interval.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "trace/chunk_aggregate.hpp"
#include "trace/trace_model.hpp"

namespace osn::noise {

struct AnalysisOptions {
  /// Use self time (nested children subtracted). Ablation: inclusive time.
  bool resolve_nesting = true;
  /// Exclude kernel activity while the task is inside a communication
  /// (barrier) window, and require attribution to an application task.
  bool runnable_filter = true;
  /// Count syscalls as noise (the paper does not; ablation only).
  bool include_requested_service = false;
  /// Worker threads for the sharded pipeline. 1 = fully serial (the
  /// bisection-friendly reference path); 0 = hardware_concurrency. Any
  /// value produces bit-identical results: shards merge deterministically
  /// and all reductions are exact integer arithmetic.
  std::size_t jobs = 1;
};

/// Per-activity statistics in the units of the paper's tables.
struct EventStats {
  std::uint64_t count = 0;
  double freq_ev_per_sec = 0.0;  ///< per CPU (the tables' normalization)
  double avg_ns = 0.0;
  DurNs max_ns = 0;
  DurNs min_ns = 0;
};

/// Per-activity rows of charged durations. trace::AggAccum is exact integer
/// arithmetic, so sharded, live and index-resident partials all reduce to
/// the same EventStats as one serial pass (a uint64 nanosecond sum holds
/// > 580 years of activity).
using ActivityAccumArray =
    std::array<trace::AggAccum, static_cast<std::size_t>(ActivityKind::kMaxKind)>;

/// Converts an accumulator to the tables' units; freq is per CPU over
/// `duration`.
EventStats to_stats(const trace::AggAccum& acc, DurNs duration, std::uint16_t n_cpus);

/// One shard's share of the noise pass (a CPU's kernel intervals, or the
/// preemption list): exact partials that reduce in shard order, plus where
/// the shard's noise survivors are (positions, not copies: merge_shards
/// lists each survivor by reference).
struct ShardPass {
  ActivityAccumArray kinds;              ///< every interval, by activity
  std::vector<CategoryBreakdown> ranks;  ///< survivors, per application rank
  std::vector<std::uint32_t> keep;       ///< survivors' positions in the shard

  /// Adds `other`'s activity rows and rank breakdowns (not its survivors).
  /// Integer-exact, so the reduce order cannot change a byte.
  void add_stats(const ShardPass& other);
};

/// The paper's noise definition, applied one shard at a time. Built once per
/// analysis: the application ranks as a sorted vector and each rank's
/// communication windows as one flat, start-sorted range, so the filter
/// does no map lookups.
class NoiseFilter {
 public:
  NoiseFilter(const trace::TraceModel& model, const std::vector<CommWindow>& comm,
              const AnalysisOptions& options);

  /// Accumulates every interval of `shard` into its activity row, and keeps
  /// (and charges to its rank) each one that qualifies as noise.
  ShardPass pass(const std::vector<Interval>& shard) const;

  /// Duration charged for one interval under the options.
  DurNs charged(const Interval& iv) const {
    return options_.resolve_nesting ? iv.self : iv.inclusive();
  }

  /// True when `t` lies inside one of `task`'s communication windows. Only
  /// application ranks have windows here: the filter drops every other task
  /// before it asks.
  bool in_comm_window(Pid task, TimeNs t) const;

  /// Application pids, sorted: rank r of ShardPass::ranks is app_pids()[r].
  const std::vector<Pid>& app_pids() const { return app_pids_; }

 private:
  static constexpr std::size_t kNotApp = static_cast<std::size_t>(-1);
  std::size_t rank_of(Pid task) const;
  bool rank_in_comm_window(std::size_t rank, TimeNs t) const;

  AnalysisOptions options_;
  std::vector<Pid> app_pids_;
  /// Rank r's windows are windows_[window_begin_[r] .. window_begin_[r + 1]).
  std::vector<CommWindow> windows_;
  std::vector<std::size_t> window_begin_;
};

/// The offline analysis, as a pipeline of the stages above:
///  1. build_intervals — per-CPU kernel scans (scan_cpu_kernel) on the pool,
///     each gathering its CPU's task records in the same pass, then the task
///     scan (scan_tasks) over the gathered records;
///  2. NoiseFilter::pass on each CPU's shard and on the preemption list, on
///     the pool;
///  3. ShardPass::add_stats reduces the partials in shard order, and
///     merge_shards lists the survivors by reference, in order.
/// Every stage is linear in its input except the final O(n log k) merge.
/// Each record is read once and each interval written once.
class NoiseAnalysis {
 public:
  explicit NoiseAnalysis(const trace::TraceModel& model, AnalysisOptions options = {});
  /// The analysis keeps a reference to the model; a temporary would dangle.
  explicit NoiseAnalysis(trace::TraceModel&& model, AnalysisOptions options = {}) = delete;

  const trace::TraceModel& model() const { return *model_; }
  const AnalysisOptions& options() const { return options_; }
  const IntervalSet& intervals() const { return intervals_; }

  /// Kernel + preemption intervals that qualify as noise under the options,
  /// sorted by interval_before. The charged duration of interval `iv` is
  /// `charged(iv)`. The list refers into intervals(): it lives as long as
  /// this analysis (or the one it is moved into).
  IntervalRefs noise_intervals() const { return IntervalRefs(noise_); }

  /// Duration charged for one interval under the options.
  DurNs charged(const Interval& iv) const {
    return options_.resolve_nesting ? iv.self : iv.inclusive();
  }

  /// Statistics over *all* kernel intervals of one activity (the tables
  /// describe the activities themselves; frequency is normalized per CPU).
  /// Precomputed in one sharded pass during construction; O(1) here.
  EventStats activity_stats(ActivityKind kind) const;

  /// Duration samples (charged ns) for one activity across noise intervals.
  std::vector<double> noise_durations(ActivityKind kind) const;

  /// Total charged noise per category for one task (Fig 3 rows): a scan of
  /// the noise list, so any task works, including non-application tasks
  /// when the runnable filter is off.
  CategoryBreakdown category_breakdown(Pid task) const;

  /// Every application rank's breakdown, aligned with model().app_pids()
  /// (sorted pids). Accumulated in the sharded pass during construction;
  /// equal to category_breakdown(pid) for each rank.
  const std::vector<CategoryBreakdown>& rank_breakdowns() const { return totals_.ranks; }

  /// Node-wide breakdown summed over all application tasks.
  CategoryBreakdown category_breakdown_all() const;

  /// Total charged noise for a task (excluding requested service).
  DurNs total_noise(Pid task) const;

  /// True when `t` lies inside one of `task`'s communication windows
  /// (application ranks only; see NoiseFilter::in_comm_window).
  bool in_comm_window(Pid task, TimeNs t) const { return filter_->in_comm_window(task, t); }

 private:
  void run_pipeline();

  const trace::TraceModel* model_;
  AnalysisOptions options_;
  /// Present when options_.jobs resolves to > 1; shared by every phase
  /// (kernel scans, filter passes).
  std::unique_ptr<ThreadPool> pool_;
  IntervalSet intervals_;
  std::unique_ptr<NoiseFilter> filter_;
  ShardPass totals_;  ///< reduced activity rows and rank breakdowns (no survivors)
  /// The noise list: pointers into intervals_'s shards. The analysis is
  /// move-only, and a move hands the shard vectors' buffers over unchanged,
  /// so the pointers stay valid in the moved-to analysis.
  std::vector<const Interval*> noise_;
};

}  // namespace osn::noise
