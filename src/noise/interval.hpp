// Kernel-activity intervals: the unit of the paper's quantitative analysis.
//
// The analyzer pairs every entry/exit tracepoint into an Interval carrying
// *inclusive* time (wall clock between entry and exit) and *self* time
// (inclusive minus nested children). Nested events — "events that happen
// while the OS is already performing other activities", e.g. a timer
// interrupt raised while the kernel runs a tasklet — are the case §III-A
// singles out as "particularly important for obtaining correct statistics":
// without self-time resolution, the tasklet's duration would double-count
// the interrupt that preempted it.
//
// Preemption intervals (an application task descheduled while runnable) are
// derived from sched_switch events and attributed to the preempted task,
// with the preempting task recorded for the per-daemon breakdown.
// Both state machines live in interval_scanner.hpp; build_intervals is its
// offline sink.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "trace/trace_model.hpp"

namespace osn::noise {

enum class ActivityKind : std::uint8_t {
  kTimerIrq,
  kNetIrq,
  kReschedIpi,
  kTimerSoftirq,      ///< run_timer_softirq
  kRebalanceSoftirq,  ///< run_rebalance_domains
  kRcuSoftirq,        ///< rcu_process_callbacks
  kNetRxTasklet,      ///< net_rx_action
  kNetTxTasklet,      ///< net_tx_action
  kPageFault,
  kSyscall,
  kSchedule,    ///< the schedule() function
  kPreemption,  ///< derived: runnable task descheduled
  kMaxKind
};

std::string_view activity_name(ActivityKind k);

/// Reverse of activity_name: parses a user-supplied activity filter (CLI
/// `--activity`, serve request field). nullopt for unknown names.
std::optional<ActivityKind> activity_from_name(std::string_view name);

/// 48 bytes: small fields first, and inclusive time derived rather than
/// stored. The analysis writes every interval once, into its shard, and
/// fresh memory is paid for page by page: later stages keep positions or
/// references, not copies.
struct Interval {
  ActivityKind kind = ActivityKind::kMaxKind;
  std::uint16_t depth = 0;  ///< nesting depth; 0 = outermost kernel activity
  CpuId cpu = 0;
  Pid task = 0;  ///< task in whose context it occurred (preempted task for kPreemption)
  std::uint64_t detail = 0;  ///< pf kind / syscall nr / preempting pid
  TimeNs start = 0;
  TimeNs end = 0;
  DurNs self = 0;  ///< inclusive minus the inclusive time of nested children

  /// Wall clock between entry and exit, nested children included.
  DurNs inclusive() const { return end - start; }

  friend bool operator==(const Interval&, const Interval&) = default;
};

/// A time window during which a task was inside an application-level
/// communication phase (barrier enter..exit markers): kernel activity inside
/// it is excluded from noise by the runnable filter.
struct CommWindow {
  Pid task = 0;
  TimeNs start = 0;
  TimeNs end = 0;
};

/// All intervals extracted from a trace.
struct IntervalSet {
  /// Entry/exit-paired kernel activities, one shard per CPU (indexed by
  /// cpu), each sorted by interval_before. There is no merged kernel list:
  /// consumers that need one global order merge what they keep
  /// (merge_kernel_shards).
  std::vector<std::vector<Interval>> kernel_by_cpu;
  std::vector<Interval> preemption;  ///< derived preemption intervals, sorted by interval_before
  std::vector<CommWindow> comm;      ///< barrier (communication) windows
};

/// Strict ordering used everywhere intervals are sorted or merged:
/// (start, depth, cpu) — a total order on kernel intervals, since one CPU
/// cannot open two intervals at the same timestamp and depth — with
/// content tie-breakers so mixed kernel/preemption lists order
/// deterministically too (no dependence on sort algorithm or shard count).
bool interval_before(const Interval& a, const Interval& b);

/// Builds the interval set from a trace, reading each record once. Damaged
/// input (any ScanFault) throws trace::TraceReadError. With a pool, the
/// per-CPU kernel scans run as parallel shards and the task scan runs once
/// they are joined; the result (and the error reported, if any: the lowest
/// damaged CPU, then the task scan) is identical to pool == nullptr.
IntervalSet build_intervals(const trace::TraceModel& model, ThreadPool* pool = nullptr);

/// One CPU's sched-switch and app-mark records, in stream order: what the
/// task scan reads, gathered by that CPU's kernel scan. They point into the
/// model's streams.
using TaskRecords = std::vector<const tracebuf::EventRecord*>;

/// One shard of the kernel scan: entry/exit pairing with nested-event
/// resolution for a single CPU's event stream, sorted by interval_before
/// (all intervals carrying cpu == `cpu`). The same pass appends the
/// stream's task records to `task_records` when one is given. Throws
/// trace::TraceReadError on a damaged stream.
std::vector<Interval> scan_cpu_kernel(const trace::TraceModel& model, CpuId cpu,
                                      TaskRecords* task_records = nullptr);

/// The task scan over the records each CPU's kernel scan gathered
/// (`by_cpu[c]` from CPU c's stream): appends the preemption intervals
/// (sorted by interval_before) and communication windows to `out`, visiting
/// the records in the (timestamp, cpu) stable order of TraceModel::merged().
/// Throws trace::TraceReadError when a task is preempted twice without
/// running in between.
void scan_tasks(const trace::TraceModel& model, const std::vector<TaskRecords>& by_cpu,
                IntervalSet& out);

/// A shard's intervals for a merge: all of them, or only those at the
/// increasing positions in `keep` (a filter's survivors, selected without
/// copying them).
struct ShardView {
  const std::vector<Interval>* shard = nullptr;
  const std::vector<std::uint32_t>* keep = nullptr;  ///< nullptr: every interval
};

/// Deterministic k-way merge of shard views, each sorted by interval_before,
/// in O(n log k). Equal heads are taken from the lower view index first.
/// The result refers into the shards (8 bytes an interval, no copies): it is
/// valid while their buffers are, which a move of the vectors keeps.
std::vector<const Interval*> merge_shards(const std::vector<ShardView>& views);

/// merge_shards over whole shards, copied out.
std::vector<Interval> merge_kernel_shards(const std::vector<std::vector<Interval>>& shards);

/// A read-only list of intervals held by reference, such as merge_shards'
/// result: iterates as `const Interval&`, indexes like a vector, and
/// compares equal to another list or to a std::vector<Interval> by value,
/// element by element.
class IntervalRefs {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Interval;
    using difference_type = std::ptrdiff_t;
    using pointer = const Interval*;
    using reference = const Interval&;

    const_iterator() = default;
    explicit const_iterator(const Interval* const* at) : at_(at) {}
    const Interval& operator*() const { return **at_; }
    const Interval* operator->() const { return *at_; }
    const_iterator& operator++() {
      ++at_;
      return *this;
    }
    const_iterator operator++(int) { return const_iterator(at_++); }
    friend bool operator==(const_iterator, const_iterator) = default;

   private:
    const Interval* const* at_ = nullptr;
  };
  using iterator = const_iterator;
  using value_type = Interval;

  /// Views the pointers themselves (not the vector holding them), so a
  /// range stays valid when that vector is moved.
  explicit IntervalRefs(std::span<const Interval* const> refs) : refs_(refs) {}

  const_iterator begin() const { return const_iterator(refs_.data()); }
  const_iterator end() const { return const_iterator(refs_.data() + refs_.size()); }
  std::size_t size() const { return refs_.size(); }
  bool empty() const { return refs_.empty(); }
  const Interval& operator[](std::size_t i) const { return *refs_[i]; }

  friend bool operator==(const IntervalRefs& a, const IntervalRefs& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const IntervalRefs& a, const std::vector<Interval>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::span<const Interval* const> refs_;
};

/// Maps an entry/exit pair (event type + arg) to its ActivityKind; nullopt
/// for an unmapped entry (damaged input, reported by the scanners as a
/// ScanFault).
std::optional<ActivityKind> activity_of(trace::EventType entry_type, std::uint64_t arg);

}  // namespace osn::noise
