#include "trace/schema.hpp"

#include "common/assert.hpp"

namespace osn::trace {

EventType entry_of(EventType exit_event) {
  OSN_ASSERT_MSG(is_exit(exit_event), "entry_of on a non-exit event");
  return static_cast<EventType>(static_cast<std::uint16_t>(exit_event) - 1);
}

EventType exit_of(EventType entry_event) {
  OSN_ASSERT_MSG(is_entry(entry_event), "exit_of on a non-entry event");
  return static_cast<EventType>(static_cast<std::uint16_t>(entry_event) + 1);
}

std::string_view event_name(EventType t) {
  switch (t) {
    case EventType::kInvalid: return "invalid";
    case EventType::kIrqEntry: return "irq_entry";
    case EventType::kIrqExit: return "irq_exit";
    case EventType::kSoftirqEntry: return "softirq_entry";
    case EventType::kSoftirqExit: return "softirq_exit";
    case EventType::kTaskletEntry: return "tasklet_entry";
    case EventType::kTaskletExit: return "tasklet_exit";
    case EventType::kPageFaultEntry: return "page_fault_entry";
    case EventType::kPageFaultExit: return "page_fault_exit";
    case EventType::kSyscallEntry: return "syscall_entry";
    case EventType::kSyscallExit: return "syscall_exit";
    case EventType::kScheduleEntry: return "schedule_entry";
    case EventType::kScheduleExit: return "schedule_exit";
    case EventType::kSchedSwitch: return "sched_switch";
    case EventType::kSchedWakeup: return "sched_wakeup";
    case EventType::kSchedMigrate: return "sched_migrate";
    case EventType::kTimerExpire: return "timer_expire";
    case EventType::kProcessFork: return "process_fork";
    case EventType::kProcessExit: return "process_exit";
    case EventType::kAppMark: return "app_mark";
    case EventType::kMaxEvent: break;
  }
  return "unknown";
}

std::string_view irq_name(IrqVector v) {
  switch (v) {
    case IrqVector::kTimer: return "timer_interrupt";
    case IrqVector::kNet: return "net_interrupt";
    case IrqVector::kResched: return "resched_ipi";
  }
  return "irq?";
}

std::string_view softirq_name(SoftirqNr nr) {
  switch (nr) {
    case SoftirqNr::kHi: return "hi_softirq";
    case SoftirqNr::kTimer: return "run_timer_softirq";
    case SoftirqNr::kNetTx: return "net_tx_softirq";
    case SoftirqNr::kNetRx: return "net_rx_softirq";
    case SoftirqNr::kBlock: return "block_softirq";
    case SoftirqNr::kTasklet: return "tasklet_action";
    case SoftirqNr::kSched: return "run_rebalance_domains";
    case SoftirqNr::kRcu: return "rcu_process_callbacks";
  }
  return "softirq?";
}

std::string_view tasklet_name(TaskletId id) {
  switch (id) {
    case TaskletId::kNetRx: return "net_rx_action";
    case TaskletId::kNetTx: return "net_tx_action";
  }
  return "tasklet?";
}

std::string_view page_fault_name(PageFaultKind k) {
  switch (k) {
    case PageFaultKind::kMinorAnon: return "pf_minor_anon";
    case PageFaultKind::kCow: return "pf_cow";
    case PageFaultKind::kFileMinor: return "pf_file_minor";
    case PageFaultKind::kFileMajor: return "pf_file_major";
  }
  return "pf?";
}

std::string_view syscall_name(SyscallNr nr) {
  switch (nr) {
    case SyscallNr::kRead: return "read";
    case SyscallNr::kWrite: return "write";
    case SyscallNr::kOpen: return "open";
    case SyscallNr::kClose: return "close";
    case SyscallNr::kMmap: return "mmap";
    case SyscallNr::kBrk: return "brk";
    case SyscallNr::kNanosleep: return "nanosleep";
    case SyscallNr::kFutex: return "futex";
    case SyscallNr::kExit: return "exit";
  }
  return "syscall?";
}

namespace {
constexpr std::uint64_t kPidMask = (1ULL << 24) - 1;
}  // namespace

std::uint64_t pack_switch(const SwitchArg& s) {
  OSN_ASSERT(s.prev <= kPidMask && s.next <= kPidMask);
  return (static_cast<std::uint64_t>(s.prev)) |
         (static_cast<std::uint64_t>(s.next) << 24) |
         (static_cast<std::uint64_t>(s.prev_runnable ? 1 : 0) << 48);
}

SwitchArg unpack_switch(std::uint64_t arg) {
  SwitchArg s{};
  s.prev = static_cast<Pid>(arg & kPidMask);
  s.next = static_cast<Pid>((arg >> 24) & kPidMask);
  s.prev_runnable = ((arg >> 48) & 1) != 0;
  return s;
}

std::uint64_t pack_migrate(Pid pid, CpuId dest) {
  OSN_ASSERT(pid <= kPidMask);
  return static_cast<std::uint64_t>(pid) | (static_cast<std::uint64_t>(dest) << 24);
}

Pid unpack_migrate_pid(std::uint64_t arg) { return static_cast<Pid>(arg & kPidMask); }
CpuId unpack_migrate_cpu(std::uint64_t arg) { return static_cast<CpuId>((arg >> 24) & 0xffff); }

tracebuf::EventRecord make_record(TimeNs ts, CpuId cpu, Pid pid, EventType type,
                                  std::uint64_t arg) {
  tracebuf::EventRecord rec;
  rec.timestamp = ts;
  rec.cpu = cpu;
  rec.pid = pid;
  rec.event = static_cast<std::uint16_t>(type);
  rec.arg = arg;
  return rec;
}

}  // namespace osn::trace
