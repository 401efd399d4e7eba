// The tracepoint vocabulary: every kernel entry/exit point and activity the
// instrumented kernel can report.
//
// This is the reproduction of the paper's instrumentation coverage: "all the
// kernel entry and exit points (interrupts, system calls, exceptions, etc.)
// and the main OS functions (such as the scheduler, softirqs, or memory
// management)". Entry/exit pairs share a prefix so the analyzer can pair them
// generically; scheduler context switches, wakeups and migrations are point
// events carrying packed arguments.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/types.hpp"
#include "tracebuf/record.hpp"

namespace osn::trace {

enum class EventType : std::uint16_t {
  kInvalid = 0,

  // Kernel entry/exit pairs. `arg` identifies the specific vector/nr/kind.
  kIrqEntry,
  kIrqExit,
  kSoftirqEntry,
  kSoftirqExit,
  kTaskletEntry,
  kTaskletExit,
  kPageFaultEntry,
  kPageFaultExit,
  kSyscallEntry,
  kSyscallExit,
  kScheduleEntry,  ///< the schedule() function itself
  kScheduleExit,

  // Scheduler point events.
  kSchedSwitch,   ///< arg = pack_switch(prev, next, prev_runnable)
  kSchedWakeup,   ///< arg = woken pid
  kSchedMigrate,  ///< arg = pack_migrate(pid, dest_cpu)

  // Timer bookkeeping (informational; duration is carried by the irq pair).
  kTimerExpire,  ///< arg = software-timer id

  // Process lifecycle.
  kProcessFork,  ///< arg = child pid
  kProcessExit,  ///< arg = exit code

  // Application-level markers (equivalent to MPI tracing hooks): used by the
  // analyzer to know compute vs. communication phases. Not kernel noise.
  kAppMark,  ///< arg = AppMark

  kMaxEvent
};

/// Hardware interrupt vectors of the simulated node.
enum class IrqVector : std::uint64_t {
  kTimer = 0,    ///< local APIC timer (tick + hrtimers)
  kNet = 1,      ///< network adapter
  kResched = 2,  ///< rescheduling IPI
};

/// Softirq numbers; ordering follows the Linux enum the paper refers to.
enum class SoftirqNr : std::uint64_t {
  kHi = 0,
  kTimer = 1,     ///< run_timer_softirq — expired software timers
  kNetTx = 2,
  kNetRx = 3,
  kBlock = 4,
  kTasklet = 6,   ///< tasklet_action (runs queued tasklets)
  kSched = 7,     ///< run_rebalance_domains
  kRcu = 9,       ///< rcu_process_callbacks
};

/// Tasklet identities. The paper (like 2.6-era terminology) calls the network
/// receive/transmit bottom halves tasklets and relies on the property that
/// tasklets of the same type are serialized across CPUs; we model both.
enum class TaskletId : std::uint64_t {
  kNetRx = 0,  ///< net_rx_action
  kNetTx = 1,  ///< net_tx_action
};

enum class PageFaultKind : std::uint64_t {
  kMinorAnon = 0,  ///< demand-zero anonymous page
  kCow = 1,        ///< copy-on-write break
  kFileMinor = 2,  ///< file-backed page already in page cache
  kFileMajor = 3,  ///< file-backed page requiring I/O
};

enum class SyscallNr : std::uint64_t {
  kRead = 0,
  kWrite = 1,
  kOpen = 2,
  kClose = 3,
  kMmap = 4,
  kBrk = 5,
  kNanosleep = 6,
  kFutex = 7,
  kExit = 8,
};

enum class AppMark : std::uint64_t {
  kComputeBegin = 0,
  kComputeEnd = 1,
  kBarrierEnter = 2,
  kBarrierExit = 3,
  kIoBegin = 4,
  kIoEnd = 5,
  kIteration = 6,
};

/// True for the opening half of an entry/exit pair. Inline: every record
/// sink (the interval scan, StreamingStats, IndexAggregator) asks per record.
inline bool is_entry(EventType t) {
  switch (t) {
    case EventType::kIrqEntry:
    case EventType::kSoftirqEntry:
    case EventType::kTaskletEntry:
    case EventType::kPageFaultEntry:
    case EventType::kSyscallEntry:
    case EventType::kScheduleEntry:
      return true;
    default:
      return false;
  }
}

/// True for the closing half of an entry/exit pair.
inline bool is_exit(EventType t) {
  switch (t) {
    case EventType::kIrqExit:
    case EventType::kSoftirqExit:
    case EventType::kTaskletExit:
    case EventType::kPageFaultExit:
    case EventType::kSyscallExit:
    case EventType::kScheduleExit:
      return true;
    default:
      return false;
  }
}

/// Maps an exit event to its entry partner (and back).
EventType entry_of(EventType exit_event);
EventType exit_of(EventType entry_event);

std::string_view event_name(EventType t);
std::string_view irq_name(IrqVector v);
std::string_view softirq_name(SoftirqNr nr);
std::string_view tasklet_name(TaskletId id);
std::string_view page_fault_name(PageFaultKind k);
std::string_view syscall_name(SyscallNr nr);

// --- argument packing -------------------------------------------------------
// kSchedSwitch packs (prev pid, next pid, prev-was-runnable) into one u64;
// kSchedMigrate packs (pid, destination cpu).

struct SwitchArg {
  Pid prev;
  Pid next;
  bool prev_runnable;  ///< false = prev blocked (voluntary switch)
};

std::uint64_t pack_switch(const SwitchArg& s);
SwitchArg unpack_switch(std::uint64_t arg);

std::uint64_t pack_migrate(Pid pid, CpuId dest);
Pid unpack_migrate_pid(std::uint64_t arg);
CpuId unpack_migrate_cpu(std::uint64_t arg);

/// Convenience constructor for a record.
tracebuf::EventRecord make_record(TimeNs ts, CpuId cpu, Pid pid, EventType type,
                                  std::uint64_t arg);

}  // namespace osn::trace
