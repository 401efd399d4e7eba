#include "noise/interval.hpp"

#include <algorithm>
#include <exception>

#include "common/mapped_file.hpp"
#include "noise/interval_scanner.hpp"
#include "trace/schema.hpp"

namespace osn::noise {

using trace::EventType;

std::string_view activity_name(ActivityKind k) {
  switch (k) {
    case ActivityKind::kTimerIrq: return "timer_interrupt";
    case ActivityKind::kNetIrq: return "net_interrupt";
    case ActivityKind::kReschedIpi: return "resched_ipi";
    case ActivityKind::kTimerSoftirq: return "run_timer_softirq";
    case ActivityKind::kRebalanceSoftirq: return "run_rebalance_domains";
    case ActivityKind::kRcuSoftirq: return "rcu_process_callbacks";
    case ActivityKind::kNetRxTasklet: return "net_rx_action";
    case ActivityKind::kNetTxTasklet: return "net_tx_action";
    case ActivityKind::kPageFault: return "page_fault";
    case ActivityKind::kSyscall: return "syscall";
    case ActivityKind::kSchedule: return "schedule";
    case ActivityKind::kPreemption: return "preemption";
    case ActivityKind::kMaxKind: break;
  }
  return "unknown";
}

std::optional<ActivityKind> activity_from_name(std::string_view name) {
  for (std::size_t k = 0; k < static_cast<std::size_t>(ActivityKind::kMaxKind); ++k) {
    const auto kind = static_cast<ActivityKind>(k);
    if (activity_name(kind) == name) return kind;
  }
  return std::nullopt;
}

std::optional<ActivityKind> activity_of(EventType entry_type, std::uint64_t arg) {
  switch (entry_type) {
    case EventType::kIrqEntry:
      switch (static_cast<trace::IrqVector>(arg)) {
        case trace::IrqVector::kTimer: return ActivityKind::kTimerIrq;
        case trace::IrqVector::kNet: return ActivityKind::kNetIrq;
        case trace::IrqVector::kResched: return ActivityKind::kReschedIpi;
      }
      break;
    case EventType::kSoftirqEntry:
      switch (static_cast<trace::SoftirqNr>(arg)) {
        case trace::SoftirqNr::kTimer: return ActivityKind::kTimerSoftirq;
        case trace::SoftirqNr::kSched: return ActivityKind::kRebalanceSoftirq;
        case trace::SoftirqNr::kRcu: return ActivityKind::kRcuSoftirq;
        case trace::SoftirqNr::kNetRx: return ActivityKind::kNetRxTasklet;
        case trace::SoftirqNr::kNetTx: return ActivityKind::kNetTxTasklet;
        default: break;
      }
      break;
    case EventType::kTaskletEntry:
      switch (static_cast<trace::TaskletId>(arg)) {
        case trace::TaskletId::kNetRx: return ActivityKind::kNetRxTasklet;
        case trace::TaskletId::kNetTx: return ActivityKind::kNetTxTasklet;
      }
      break;
    case EventType::kPageFaultEntry: return ActivityKind::kPageFault;
    case EventType::kSyscallEntry: return ActivityKind::kSyscall;
    case EventType::kScheduleEntry: return ActivityKind::kSchedule;
    default: break;
  }
  return std::nullopt;
}

bool interval_before(const Interval& a, const Interval& b) {
  if (a.start != b.start) return a.start < b.start;
  if (a.depth != b.depth) return a.depth < b.depth;
  if (a.cpu != b.cpu) return a.cpu < b.cpu;
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.task != b.task) return a.task < b.task;
  if (a.detail != b.detail) return a.detail < b.detail;
  return a.end < b.end;
}

namespace {

bool record_before(const tracebuf::EventRecord& a, const tracebuf::EventRecord& b) {
  if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
  return a.cpu < b.cpu;
}

/// The gathered task records in the (timestamp, cpu) stable order of
/// TraceModel::merged(): the stable sort of their CPU-major concatenation.
/// Each CPU's run is put in order on its own (a time-sorted stream already
/// is), then neighbouring runs merge pairwise, the left run first on ties:
/// a stable merge sort that starts from whole runs.
TaskRecords task_order(const std::vector<TaskRecords>& by_cpu) {
  const auto before = [](const tracebuf::EventRecord* a, const tracebuf::EventRecord* b) {
    return record_before(*a, *b);
  };
  std::size_t total = 0;
  for (const TaskRecords& run : by_cpu) total += run.size();
  TaskRecords out;
  out.reserve(total);
  std::vector<std::size_t> bounds = {0};  // run r is [bounds[r], bounds[r + 1])
  for (const TaskRecords& run : by_cpu) {
    if (run.empty()) continue;
    const auto first = out.insert(out.end(), run.begin(), run.end());
    if (!std::is_sorted(first, out.end(), before)) std::stable_sort(first, out.end(), before);
    bounds.push_back(out.size());
  }
  const auto at = [&out](std::size_t i) { return out.begin() + static_cast<std::ptrdiff_t>(i); };
  while (bounds.size() > 2) {
    std::vector<std::size_t> merged = {0};
    std::size_t r = 0;
    for (; r + 2 < bounds.size(); r += 2) {
      std::inplace_merge(at(bounds[r]), at(bounds[r + 1]), at(bounds[r + 2]), before);
      merged.push_back(bounds[r + 2]);
    }
    if (r + 1 < bounds.size()) merged.push_back(bounds[r + 1]);  // an odd run out
    bounds = std::move(merged);
  }
  return out;
}

}  // namespace

std::vector<Interval> scan_cpu_kernel(const trace::TraceModel& model, CpuId cpu,
                                      TaskRecords* task_records) {
  const std::vector<tracebuf::EventRecord>& events = model.cpu_events(cpu);
  std::vector<Interval> shard;
  // Every interval takes an entry and an exit record: half the stream is a
  // bound on well-formed input, and no page is touched before it is used.
  shard.reserve(events.size() / 2);
  // A frame's payload is the shard slot reserved at its entry, so the shard
  // is in entry order however the frames close.
  NestingStack<std::size_t> stack;
  NestingStack<std::size_t>::Closed closed;
  for (const auto& rec : events) {
    const auto type = static_cast<EventType>(rec.event);
    if (trace::is_entry(type)) {
      const ScanFault fault = stack.enter(rec, shard.size());
      if (fault != ScanFault::kNone) throw_scan_fault(cpu, rec.timestamp, fault);
      // Charged to the task current on the CPU at entry.
      shard.push_back(Interval{ActivityKind::kMaxKind, 0, cpu, rec.pid, rec.arg, rec.timestamp});
    } else if (trace::is_exit(type)) {
      const ScanFault fault = stack.exit(rec, closed);
      if (fault != ScanFault::kNone) throw_scan_fault(cpu, rec.timestamp, fault);
      Interval& iv = shard[closed.payload];
      iv.kind = closed.kind;
      iv.depth = closed.depth;
      iv.end = closed.end;
      iv.self = closed.self;
    } else if (task_records != nullptr &&
               (type == EventType::kSchedSwitch || type == EventType::kAppMark)) {
      task_records->push_back(&rec);
    }
  }
  if (!stack.empty()) throw_scan_fault(cpu, stack.innermost_start(), ScanFault::kOpenAtEnd);
  // Entry order is interval_before order except when zero-length intervals
  // share a timestamp; restore the documented order then.
  if (!std::is_sorted(shard.begin(), shard.end(), interval_before))
    std::stable_sort(shard.begin(), shard.end(), interval_before);
  return shard;
}

void scan_tasks(const trace::TraceModel& model, const std::vector<TaskRecords>& by_cpu,
                IntervalSet& out) {
  TaskTracker tracker;
  const auto is_app = [&model](Pid pid) { return model.is_app(pid); };
  const auto on_preemption = [&out](const Interval& iv, bool) { out.preemption.push_back(iv); };
  const auto on_comm = [&out](const CommWindow& w) { out.comm.push_back(w); };
  for (const tracebuf::EventRecord* rec : task_order(by_cpu)) {
    if (static_cast<EventType>(rec->event) == EventType::kSchedSwitch) {
      const ScanFault fault = tracker.on_switch(*rec, is_app, on_preemption);
      if (fault != ScanFault::kNone) throw_scan_fault(rec->cpu, rec->timestamp, fault);
    } else {
      (void)tracker.on_mark(*rec, on_comm);  // a re-entered window restarts
    }
  }
  tracker.close_all(model.meta().end_ns, on_preemption, on_comm);
  std::sort(out.preemption.begin(), out.preemption.end(), interval_before);
}

std::vector<const Interval*> merge_shards(const std::vector<ShardView>& views) {
  struct Head {
    const Interval* at;         ///< the view's next interval
    const Interval* base;
    const std::uint32_t* keep;  ///< next position, or nullptr for every interval
    const std::uint32_t* keep_end;
    const Interval* end;        ///< one past the last interval (keep == nullptr)
    std::size_t view;

    bool advance() {
      if (keep == nullptr) return ++at != end;
      if (++keep == keep_end) return false;
      at = base + *keep;
      return true;
    }
  };
  // Min-heap on (head interval, view): equal heads pop from the lower view
  // first, so the result does not depend on the heap's shape.
  const auto before = [](const Head& a, const Head& b) {
    if (a.at->start != b.at->start) return a.at->start < b.at->start;
    if (interval_before(*a.at, *b.at)) return true;
    if (interval_before(*b.at, *a.at)) return false;
    return a.view < b.view;
  };

  std::size_t total = 0;
  std::vector<Head> heap;
  for (std::size_t v = 0; v < views.size(); ++v) {
    const std::vector<Interval>& shard = *views[v].shard;
    const std::vector<std::uint32_t>* keep = views[v].keep;
    const std::size_t size = keep != nullptr ? keep->size() : shard.size();
    total += size;
    if (size == 0) continue;
    if (keep != nullptr) {
      heap.push_back(Head{shard.data() + keep->front(), shard.data(), keep->data(),
                          keep->data() + keep->size(), nullptr, v});
    } else {
      heap.push_back(Head{shard.data(), shard.data(), nullptr, nullptr,
                          shard.data() + shard.size(), v});
    }
  }
  // Restores the heap below slot `i` (the top's replacement sifts down).
  const auto sift_down = [&](std::size_t i) {
    const std::size_t n = heap.size();
    for (;;) {
      std::size_t least = i;
      const std::size_t l = 2 * i + 1, r = l + 1;
      if (l < n && before(heap[l], heap[least])) least = l;
      if (r < n && before(heap[r], heap[least])) least = r;
      if (least == i) return;
      std::swap(heap[i], heap[least]);
      i = least;
    }
  };
  for (std::size_t i = heap.size() / 2; i-- > 0;) sift_down(i);

  std::vector<const Interval*> out;
  out.reserve(total);
  prefault_writable(out.data(), total * sizeof(const Interval*));
  while (!heap.empty()) {
    out.push_back(heap.front().at);
    if (!heap.front().advance()) {
      heap.front() = heap.back();
      heap.pop_back();
    }
    sift_down(0);
  }
  return out;
}

std::vector<Interval> merge_kernel_shards(const std::vector<std::vector<Interval>>& shards) {
  std::vector<ShardView> views;
  views.reserve(shards.size());
  for (const std::vector<Interval>& shard : shards) views.push_back(ShardView{&shard, nullptr});
  const std::vector<const Interval*> refs = merge_shards(views);
  const IntervalRefs merged(refs);
  return std::vector<Interval>(merged.begin(), merged.end());
}

IntervalSet build_intervals(const trace::TraceModel& model, ThreadPool* pool) {
  IntervalSet out;
  out.kernel_by_cpu.resize(model.cpu_count());
  std::vector<TaskRecords> task_records(model.cpu_count());

  // --- kernel entry/exit intervals: one shard per CPU ----------------------
  // The scan is CPU-local by construction (LTTng's channels are per-CPU), so
  // shards run concurrently. Each gathers its CPU's task records on the way,
  // and the task scan runs on them once every shard is in.
  const auto scan = [&](CpuId cpu) {
    out.kernel_by_cpu[cpu] = scan_cpu_kernel(model, cpu, &task_records[cpu]);
  };
  if (pool == nullptr || model.cpu_count() <= 1) {
    for (CpuId cpu = 0; cpu < model.cpu_count(); ++cpu) scan(cpu);
  } else {
    std::vector<ThreadPool::Future<void>> futures;
    futures.reserve(model.cpu_count());
    for (CpuId cpu = 0; cpu < model.cpu_count(); ++cpu)
      futures.push_back(pool->submit([&scan, cpu] { scan(cpu); }));
    // Every shard is collected before anything is rethrown (the tasks hold
    // references into this frame), and the error reported is the one the
    // serial order meets first: the lowest damaged CPU.
    std::exception_ptr error;
    for (auto& future : futures) {
      try {
        future.get();
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
  }
  scan_tasks(model, task_records, out);
  return out;
}

}  // namespace osn::noise
