// The simulated compute-node kernel.
//
// This is the substrate substituting for the paper's Linux 2.6.33 node (see
// DESIGN.md §2). It is a discrete-event model of the kernel mechanics that
// generate OS noise:
//
//  * execution frames — every kernel activity (irq handler, softirq, tasklet,
//    page fault, syscall, schedule) runs as a preemptible frame on a per-CPU
//    context stack, so activities nest exactly as they do on real hardware
//    (a timer interrupt can arrive in the middle of a tasklet — the situation
//    the paper calls out as critical for correct statistics);
//  * a CFS-like scheduler with vruntime, wakeup preemption, sleeper credit,
//    rescheduling IPIs and periodic domain rebalancing (run_rebalance_domains
//    raised from the scheduler tick; pulls from the busiest CPU);
//  * a periodic 100 Hz tick per CPU raising the TIMER softirq
//    (run_timer_softirq) that fires expired software timers;
//  * demand-paged memory: tasks touch pages of registered regions; unmapped
//    pages raise page-fault frames whose durations follow per-workload models;
//  * NFS-only I/O: read/write syscalls split into rsize-chunk RPCs, sent via
//    the net_tx_action tasklet (asynchronous DMA kick — fast), answered by a
//    modelled NFS server, received via net interrupt + net_rx_action tasklet
//    (synchronous copy — slow), delivered by the rpciod kernel daemon which
//    preempts application ranks; tasklets of the same type are serialized
//    across CPUs while distinct softirqs may run concurrently;
//  * kernel daemons (rpciod, events) implemented as kernel threads scheduled
//    like any task.
//
// Every entry/exit point is instrumented with tracepoints (src/trace schema)
// exactly as LTTNG-NOISE instruments Linux.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "kernel/activity_models.hpp"
#include "kernel/config.hpp"
#include "kernel/program.hpp"
#include "sim/engine.hpp"
#include "trace/schema.hpp"
#include "trace/sink.hpp"
#include "trace/trace_model.hpp"

namespace osn::kernel {

// ---------------------------------------------------------------------------
// Execution frames
// ---------------------------------------------------------------------------

enum class FrameKind : std::uint8_t {
  kIrq,
  kSoftirq,
  kTasklet,
  kPageFault,
  kSyscall,
  kSchedule,
};

/// Runs after a frame's exit tracepoint, still "inside the kernel"; may push
/// further frames, raise softirqs, wake tasks.
using Epilogue = std::function<void(Kernel&)>;

/// An epilogue std::function keeps inline: at most two words of trivially
/// copyable captures, so pushing a frame never allocates. State too large for
/// that lives in the kernel (see NetState's in-flight batches).
template <typename F>
inline constexpr bool kInlineEpilogue =
    sizeof(F) <= 2 * sizeof(void*) && std::is_trivially_copyable_v<F>;

struct Frame {
  FrameKind kind;
  std::uint64_t tag = 0;  ///< irq vector / softirq nr / tasklet id / pf kind / syscall nr
  DurNs remaining = 0;
  TimeNs resumed_at = 0;
  sim::EventId completion = sim::kInvalidEvent;
  Epilogue on_complete;
};

// ---------------------------------------------------------------------------
// Tasks
// ---------------------------------------------------------------------------

enum class TaskState : std::uint8_t { kRunning, kRunnable, kBlocked, kExited };

/// A demand-paged memory mapping owned by a task. Like a brk heap it has no
/// fixed size: a touch beyond its end grows `present` with unmapped pages.
struct MemRegion {
  std::uint32_t id = 0;
  trace::PageFaultKind fault_kind = trace::PageFaultKind::kMinorAnon;
  std::vector<bool> present;
};

// Ongoing user-side operation of a task (between program actions).
struct OpNone {};
struct OpCompute {};
struct OpTouch {
  ActTouch act;
  std::uint64_t next_page = 0;  ///< absolute page index within the region
};
struct OpIo {
  std::uint32_t rpcs_remaining = 0;
  bool is_read = true;
};
struct OpBarrier {
  std::uint32_t id = 0;
};
struct OpSleep {};
struct OpBlocked {};
using TaskOp = std::variant<OpNone, OpCompute, OpTouch, OpIo, OpBarrier, OpSleep, OpBlocked>;

struct Task {
  Pid pid = 0;
  std::string name;
  bool is_app = false;
  bool is_kthread = false;
  TaskState state = TaskState::kRunnable;

  CpuId cpu = kNoCpu;     ///< CPU it is running on (or last ran on)
  CpuId pinned = kNoCpu;  ///< hard affinity (per-CPU kthreads like events/N)
  double vruntime = 0.0;
  TimeNs exec_start = 0;  ///< last accounting point while running

  DurNs user_remaining = 0;   ///< remaining user time of the current segment
  DurNs pending_penalty = 0;  ///< cold-cache penalty added to next segment
  TaskOp op = OpNone{};
  std::unique_ptr<TaskProgram> program;

  /// The task's own draws (daemon service times, rank phases); split from
  /// the kernel's root rng at spawn.
  Xoshiro256 rng{0};

  std::vector<MemRegion> regions;
  std::uint64_t fault_count = 0;
  std::uint64_t preempt_count = 0;
  std::uint64_t migration_count = 0;
};

struct SoftTimer {
  TimeNs expiry = 0;
  std::uint64_t id = 0;
  /// Invoked from run_timer_softirq; the CpuId is the firing CPU.
  std::function<void(Kernel&, CpuId)> fn;
};

// ---------------------------------------------------------------------------
// Per-CPU state
// ---------------------------------------------------------------------------

struct CpuState {
  CpuId id = 0;
  Pid current = kIdlePid;
  std::vector<Frame> stack;  ///< kernel context stack; back() is running

  // User-mode execution of `current` (only meaningful when stack empty).
  bool user_active = false;
  TimeNs user_resumed_at = 0;
  sim::EventId user_completion = sim::kInvalidEvent;

  bool need_resched = false;
  bool resched_ipi_inflight = false;
  bool tick_pending = false;  ///< the in-flight timer irq is a periodic tick
  std::uint32_t softirq_pending = 0;  ///< bitmask over trace::SoftirqNr
  /// hrtimers whose expiry the in-flight timer irq services.
  std::vector<SoftTimer> expired_hrtimers;
  /// Software timers the in-flight run_timer_softirq frame fires (softirqs
  /// never nest, so a CPU has at most one).
  std::vector<SoftTimer> expired_timers;

  std::vector<Pid> runqueue;  ///< runnable tasks excluding `current`
  std::uint64_t ticks = 0;
  TimeNs next_tick = 0;
  double min_vruntime = 0.0;

  Xoshiro256 rng{0};
};

// ---------------------------------------------------------------------------
// Subsystems
// ---------------------------------------------------------------------------


/// One in-flight NFS RPC (request sent, reply pending).
struct Rpc {
  Pid owner = 0;
  bool is_read = true;
};

struct NetState {
  std::deque<Rpc> tx_queue;     ///< requests awaiting the DMA kick
  std::deque<Rpc> rx_queue;     ///< replies awaiting net_rx_action
  CpuId next_irq_cpu = 0;       ///< round-robin irq target
  bool tasklet_running[2] = {false, false};  ///< per trace::TaskletId
  /// The batch the running tasklet of each type claimed (tasklets of one
  /// type are serialized, so there is at most one per type).
  std::deque<Rpc> tasklet_batch[2];
  /// The modelled NFS server is a FIFO: a burst of requests drains at the
  /// server's service rate, so replies come back spread out rather than as
  /// one simultaneous wave.
  TimeNs server_free_at = 0;
  std::uint64_t rpcs_sent = 0;
  std::uint64_t rpcs_completed = 0;
};

struct BarrierState {
  std::uint32_t arrived = 0;
  std::vector<Pid> waiters;
};

// ---------------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------------

class Kernel {
 public:
  Kernel(NodeConfig config, ActivityModels models, trace::TraceSink& sink);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- setup (before start()) ---------------------------------------------
  /// Creates a task; it becomes runnable on `home` when the kernel starts.
  Pid spawn(std::string name, std::unique_ptr<TaskProgram> program, bool is_app,
            CpuId home);
  /// Registers an empty demand-paged region on a task; returns the region id.
  std::uint32_t add_region(Pid pid, trace::PageFaultKind kind);

  // --- run ------------------------------------------------------------------
  /// Boots the node: starts ticks, the events daemon, rpciod, and enqueues
  /// all spawned tasks.
  void start();
  /// Runs until every application task exited or `max_time` is reached.
  void run_until_apps_done(TimeNs max_time);
  /// Closes open kernel frames in the trace and returns metadata + task
  /// table; the caller combines this with the sink's records (see
  /// build_trace_model below).
  trace::TraceMeta finish(const std::string& workload_name);

  // --- introspection ---------------------------------------------------------
  sim::Engine& engine() { return engine_; }
  TimeNs now() const { return engine_.now(); }
  const NodeConfig& config() const { return config_; }
  ActivityModels& models() { return models_; }
  Task& task(Pid pid);
  const Task& task(Pid pid) const;
  CpuState& cpu(CpuId id) { return cpus_[id]; }
  std::map<Pid, trace::TaskInfo> task_infos() const;
  std::size_t live_app_count() const { return live_apps_; }
  const NetState& net() const { return net_; }

  // --- API for programs (user space) and daemons ------------------------------
  /// Wakes a blocked task (no-op when already runnable/running).
  /// `waker_cpu` influences placement like Linux's wake_affine.
  void wake(Pid pid, CpuId waker_cpu);
  /// Arms a one-shot software timer on `cpu`, fired by run_timer_softirq on
  /// the first tick at/after now+delay. Returns the timer id.
  std::uint64_t arm_timer(CpuId cpu, DurNs delay, std::function<void(Kernel&, CpuId)> fn);
  /// Arms a one-shot high-resolution timer on `cpu`: the local timer raises
  /// an interrupt at exactly now+delay ("the local timer may raise an
  /// interrupt any time a high resolution timer expires", §IV-E) and the
  /// callback runs from the handler. Returns the timer id.
  std::uint64_t arm_hrtimer(CpuId cpu, DurNs delay, std::function<void(Kernel&, CpuId)> fn);
  /// Emits an application-level marker in the trace for `t`.
  void mark(const Task& t, trace::AppMark m);
  /// The rpciod work queue: completed RPCs awaiting delivery.
  std::deque<Rpc>& rpciod_work() { return rpciod_work_; }
  /// Delivers one completed RPC: decrements the owner's outstanding count and
  /// wakes it when its I/O is complete. Called by rpciod.
  void complete_rpc(const Rpc& rpc, CpuId delivery_cpu);
  Pid rpciod_pid() const { return rpciod_pid_; }
  /// Per-CPU events/N workqueue daemons (index = CPU).
  const std::vector<Pid>& events_pids() const { return events_pids_; }

 private:
  friend class RpciodProgram;
  friend class EventsProgram;

  // kernel_exec.cpp — frame machinery and user-mode execution.
  void trace_event(CpuId cpu, trace::EventType type, std::uint64_t arg);
  template <typename F>
  void push_frame(CpuId cpu, FrameKind kind, std::uint64_t tag, DurNs duration,
                  F on_complete) {
    static_assert(kInlineEpilogue<F>, "frame epilogue would be heap-allocated");
    push_frame_impl(cpu, kind, tag, duration, Epilogue(on_complete));
  }
  void push_frame_impl(CpuId cpu, FrameKind kind, std::uint64_t tag, DurNs duration,
                       Epilogue on_complete);
  void schedule_frame_completion(CpuId cpu);
  void frame_completed(CpuId cpu);
  void pause_user(CpuId cpu);
  void resume_context(CpuId cpu);
  void resume_user(CpuId cpu);
  void user_segment_done(CpuId cpu);
  void request_next_action(CpuId cpu, Task& t);
  void begin_action(CpuId cpu, Task& t, Action action);
  static trace::EventType frame_entry_event(FrameKind kind);
  static trace::EventType frame_exit_event(FrameKind kind);

  // kernel_sched.cpp — CFS, wakeups, switches, rebalance.
  void enqueue_task(CpuId cpu, Pid pid);
  void dequeue_task(CpuId cpu, Pid pid);
  Pid pick_next(CpuId cpu);
  void update_curr(CpuId cpu);
  void update_min_vruntime(CpuId cpu);
  void check_preempt_wakeup(CpuId cpu, Task& woken);
  CpuId select_cpu(Task& t, CpuId waker_cpu);
  void send_resched_ipi(CpuId target);
  void do_schedule(CpuId cpu);
  void context_switch(CpuId cpu, Pid next);
  void scheduler_tick(CpuId cpu);
  void run_rebalance(CpuId cpu);
  void migrate_task(Pid pid, CpuId from, CpuId to);

  // kernel_irq.cpp — interrupts, softirqs, tasklets, tick, timers.
  void deliver_irq(CpuId cpu, trace::IrqVector vector);
  void irq_completed(CpuId cpu, trace::IrqVector vector);
  void raise_softirq(CpuId cpu, trace::SoftirqNr nr);
  void do_softirq(CpuId cpu);
  void run_softirq(CpuId cpu, trace::SoftirqNr nr);
  void run_tasklet(CpuId cpu, trace::TaskletId id);
  void tick(CpuId cpu);

  // kernel_mm.cpp — touch/fault path.
  void continue_touch(CpuId cpu, Task& t);
  void handle_page_fault(CpuId cpu, Task& t, MemRegion& region, std::uint64_t page,
                         bool write);

  // kernel_net.cpp — syscalls, NFS, barriers, sleep.
  template <typename F>
  void begin_syscall(CpuId cpu, Task& t, trace::SyscallNr nr, F body) {
    OSN_ASSERT(cpus_[cpu].current == t.pid);
    const DurNs duration = models_.syscall_overhead.sample(cpus_[cpu].rng);
    push_frame(cpu, FrameKind::kSyscall, static_cast<std::uint64_t>(nr), duration, body);
  }
  void start_io(CpuId cpu, Task& t, const ActIo& io);
  void kick_tx_dma(CpuId cpu);
  void rpc_reply_arrives(const Rpc& rpc);
  void enter_barrier(CpuId cpu, Task& t, const ActBarrier& b);
  void block_current(CpuId cpu, TaskOp op);

  NodeConfig config_;
  ActivityModels models_;
  trace::TraceSink& sink_;
  sim::Engine engine_;

  std::vector<CpuState> cpus_;
  /// Indexed by pid - 1: pids are dense from 1 and tasks are never removed.
  std::vector<std::unique_ptr<Task>> tasks_;
  std::size_t live_apps_ = 0;
  bool started_ = false;

  // Timers: per-CPU pending software timers (fired by run_timer_softirq).
  std::vector<std::vector<SoftTimer>> timers_;
  std::uint64_t next_timer_id_ = 1;

  NetState net_;
  std::deque<Rpc> rpciod_work_;
  Pid rpciod_pid_ = 0;
  std::vector<Pid> events_pids_;

  std::map<std::uint32_t, BarrierState> barriers_;

  Xoshiro256 root_rng_{0};
};

/// Builds a TraceModel from a finished kernel run: splits the sink's records
/// per CPU and attaches the kernel's task table.
trace::TraceModel build_trace_model(trace::TraceMeta meta,
                                    const std::vector<tracebuf::EventRecord>& records,
                                    std::map<Pid, trace::TaskInfo> tasks);

}  // namespace osn::kernel
