// The interval state machine of §III-A, written once. NestingStack pairs
// one CPU's entry/exit records into frames whose self time is inclusive
// time minus their direct children's; TaskTracker follows tasks across
// CPUs through preemption (descheduled while runnable, until it runs again)
// and communication windows (barrier enter..exit).
//
// The offline build (scan_cpu_kernel, scan_tasks), StreamingStats and
// IndexAggregator are thin sinks over the two: each attaches its own payload
// to a frame and picks its own response to a ScanFault — throw_scan_fault,
// or a veto. All inline, with no type-erased call per interval.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/pid_map.hpp"
#include "common/types.hpp"
#include "noise/interval.hpp"
#include "trace/schema.hpp"
#include "trace/trace_error.hpp"
#include "tracebuf/record.hpp"

namespace osn::noise {

/// Damaged input met by the state machine.
enum class ScanFault : std::uint8_t {
  kNone,
  kUnmappedEntry,
  kExitWithoutEntry,
  kMismatchedExit,    ///< exit of another activity than the open frame's
  kTimeBackwards,     ///< exit earlier than its frame's entry
  kOpenAtEnd,         ///< frame still open when the CPU's stream ends
  kNestedPreemption,  ///< a preempted task descheduled again without running
};

/// Damaged input is an input condition, not a programming error: the typed
/// reader error "cpu N: <fault> at T ns", never an abort.
[[noreturn]] inline void throw_scan_fault(std::uint32_t cpu, TimeNs t, ScanFault fault) {
  constexpr std::string_view kText[] = {  // in enum order
      "no fault", "unmapped entry event", "exit without entry", "mismatched exit",
      "exit before its entry", "kernel interval still open at end of trace, opened",
      "nested preemption of one task"};
  static_assert(std::size(kText) == static_cast<std::size_t>(ScanFault::kNestedPreemption) + 1);
  throw trace::TraceReadError("cpu " + std::to_string(cpu) + ": " +
                              std::string(kText[static_cast<std::size_t>(fault)]) + " at " +
                              std::to_string(t) + " ns");
}

/// One CPU's open kernel frames. `Payload` is what the sink needs back when
/// a frame closes.
template <class Payload>
class NestingStack {
 public:
  struct Closed {
    ActivityKind kind = ActivityKind::kMaxKind;
    std::uint16_t depth = 0;  ///< frames still open around it; 0 = outermost
    TimeNs start = 0;
    TimeNs end = 0;
    DurNs self = 0;
    Payload payload{};
  };

  ScanFault enter(const tracebuf::EventRecord& rec, Payload payload) {
    const auto kind = activity_of(static_cast<trace::EventType>(rec.event), rec.arg);
    if (!kind) return ScanFault::kUnmappedEntry;
    frames_.push_back(Frame{*kind, rec.timestamp, 0, payload});
    return ScanFault::kNone;
  }

  /// Closes the innermost frame into `out` (untouched on a fault).
  ScanFault exit(const tracebuf::EventRecord& rec, Closed& out) {
    if (frames_.empty()) return ScanFault::kExitWithoutEntry;
    const Frame frame = frames_.back();
    frames_.pop_back();
    const auto entry = trace::entry_of(static_cast<trace::EventType>(rec.event));
    if (activity_of(entry, rec.arg) != frame.kind) return ScanFault::kMismatchedExit;
    if (rec.timestamp < frame.start) return ScanFault::kTimeBackwards;
    const DurNs inclusive = rec.timestamp - frame.start;
    if (!frames_.empty()) frames_.back().child_time += inclusive;
    out = Closed{frame.kind, static_cast<std::uint16_t>(frames_.size()), frame.start,
                 rec.timestamp, sat_sub(inclusive, frame.child_time), frame.payload};
    return ScanFault::kNone;
  }

  bool empty() const { return frames_.empty(); }
  std::size_t size() const { return frames_.size(); }
  /// Entry time of the innermost open frame (the kOpenAtEnd report).
  TimeNs innermost_start() const { return frames_.back().start; }

 private:
  struct Frame {
    ActivityKind kind;
    TimeNs start;
    DurNs child_time;  ///< inclusive time of the direct children closed so far
    Payload payload;
  };
  std::vector<Frame> frames_;
};

/// Per-task preemption and communication-window state, in a hashed table
/// (one probe per record) with counts of the tasks preempted and in a
/// window, so all_idle() needs no walk. Pid order is restored where it is
/// observable: close_all() calls back in ascending pid order.
/// A closed preemption reaches `on_preemption(iv, in_comm_at_start)`: the
/// derived kPreemption interval (cpu = where the task was descheduled,
/// detail = the preempting pid), and whether the task was then inside a
/// communication window.
class TaskTracker {
 public:
  /// A sched_switch record: opens `prev`'s preemption when it leaves
  /// runnable and closes `next`'s, for tasks where `tracked(pid)` holds
  /// (never idle). kNestedPreemption, changing nothing, when `prev` is
  /// already preempted.
  template <class Tracked, class OnPreemption>
  ScanFault on_switch(const tracebuf::EventRecord& rec, Tracked&& tracked,
                      OnPreemption&& on_preemption) {
    const trace::SwitchArg sw = trace::unpack_switch(rec.arg);
    if (sw.prev != kIdlePid && sw.prev_runnable && tracked(sw.prev)) {
      Task& task = tasks_[sw.prev];
      if (task.preempted) return ScanFault::kNestedPreemption;
      task.preempted = true;
      ++preempted_;
      task.pre_in_comm = task.in_comm;
      task.pre_cpu = rec.cpu;
      task.preemptor = sw.next;
      task.pre_start = rec.timestamp;
    }
    if (sw.next != kIdlePid && tracked(sw.next)) {
      Task* task = tasks_.find(sw.next);
      if (task != nullptr && task->preempted)
        close_preemption(sw.next, *task, rec.timestamp, on_preemption);
    }
    return ScanFault::kNone;
  }

  /// An app-mark record: barrier enter opens the task's communication
  /// window, barrier exit closes it. True when the task re-entered a window
  /// it was already in; the window then restarts at this record.
  template <class OnComm>
  bool on_mark(const tracebuf::EventRecord& rec, OnComm&& on_comm) {
    const auto mark = static_cast<trace::AppMark>(rec.arg);
    Task& task = tasks_[rec.pid];
    if (mark == trace::AppMark::kBarrierEnter) {
      const bool reentered = task.in_comm;
      if (!reentered) ++in_comm_;
      task.in_comm = true;
      task.comm_start = rec.timestamp;
      return reentered;
    }
    if (mark == trace::AppMark::kBarrierExit && task.in_comm) {
      on_comm(CommWindow{rec.pid, task.comm_start, rec.timestamp});
      task.in_comm = false;
      --in_comm_;
    }
    return false;
  }

  bool in_comm(Pid pid) const {
    const Task* task = tasks_.find(pid);
    return task != nullptr && task->in_comm;
  }

  /// No task preempted or inside a communication window.
  bool all_idle() const { return preempted_ == 0 && in_comm_ == 0; }

  /// Closes at `end`, in pid order, every preemption and window still open
  /// (a task preempted when tracing stopped still contributes the observed
  /// portion), and forgets every task.
  template <class OnPreemption, class OnComm>
  void close_all(TimeNs end, OnPreemption&& on_preemption, OnComm&& on_comm) {
    tasks_.for_each_sorted([&](Pid pid, Task& task) {
      if (task.preempted) close_preemption(pid, task, end, on_preemption);
      if (task.in_comm) on_comm(CommWindow{pid, task.comm_start, end});
    });
    tasks_.clear();
    in_comm_ = 0;
  }

 private:
  struct Task {
    bool preempted = false;
    bool pre_in_comm = false;  ///< in a communication window when preempted
    bool in_comm = false;
    CpuId pre_cpu = 0;
    Pid preemptor = 0;
    TimeNs pre_start = 0;
    TimeNs comm_start = 0;
  };

  template <class OnPreemption>
  void close_preemption(Pid pid, Task& task, TimeNs end, OnPreemption& on_preemption) {
    task.preempted = false;
    --preempted_;
    // self = end - start unsigned: a hostile stream that resumes a task
    // before it was descheduled wraps, identically in every sink.
    on_preemption(Interval{ActivityKind::kPreemption, 0, task.pre_cpu, pid, task.preemptor,
                           task.pre_start, end, end - task.pre_start},
                  task.pre_in_comm);
  }

  PidMap<Task> tasks_;
  std::size_t preempted_ = 0;  ///< tasks with preempted set
  std::size_t in_comm_ = 0;    ///< tasks with in_comm set
};

}  // namespace osn::noise
