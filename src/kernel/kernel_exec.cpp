// Execution-frame machinery and user-mode execution.
//
// Every kernel activity runs as a Frame on the per-CPU context stack; user
// computation runs "below" the stack and is paused whenever a frame is
// pushed. This gives correct nesting for free: if a timer interrupt arrives
// while a tasklet runs, the tasklet frame is paused (its remaining time is
// preserved) and resumed when the interrupt handler finishes — which is
// exactly the nested-event structure the paper's offline analysis must
// untangle (§III-A: "We took particular care of nested events").
#include "common/assert.hpp"
#include "kernel/kernel.hpp"

namespace osn::kernel {

trace::EventType Kernel::frame_entry_event(FrameKind kind) {
  switch (kind) {
    case FrameKind::kIrq: return trace::EventType::kIrqEntry;
    case FrameKind::kSoftirq: return trace::EventType::kSoftirqEntry;
    case FrameKind::kTasklet: return trace::EventType::kTaskletEntry;
    case FrameKind::kPageFault: return trace::EventType::kPageFaultEntry;
    case FrameKind::kSyscall: return trace::EventType::kSyscallEntry;
    case FrameKind::kSchedule: return trace::EventType::kScheduleEntry;
  }
  OSN_ASSERT_MSG(false, "unreachable frame kind");
}

trace::EventType Kernel::frame_exit_event(FrameKind kind) {
  switch (kind) {
    case FrameKind::kIrq: return trace::EventType::kIrqExit;
    case FrameKind::kSoftirq: return trace::EventType::kSoftirqExit;
    case FrameKind::kTasklet: return trace::EventType::kTaskletExit;
    case FrameKind::kPageFault: return trace::EventType::kPageFaultExit;
    case FrameKind::kSyscall: return trace::EventType::kSyscallExit;
    case FrameKind::kSchedule: return trace::EventType::kScheduleExit;
  }
  OSN_ASSERT_MSG(false, "unreachable frame kind");
}

void Kernel::trace_event(CpuId cpu, trace::EventType type, std::uint64_t arg) {
  sink_.write(trace::make_record(now(), cpu, cpus_[cpu].current, type, arg));
}

void Kernel::push_frame_impl(CpuId cpu, FrameKind kind, std::uint64_t tag, DurNs duration,
                             Epilogue on_complete) {
  CpuState& c = cpus_[cpu];
  if (!c.stack.empty()) {
    // Preempt the running frame: freeze its remaining time.
    Frame& top = c.stack.back();
    engine_.cancel(top.completion);
    top.completion = sim::kInvalidEvent;
    top.remaining = sat_sub(top.remaining, sat_sub(now(), top.resumed_at));
  } else if (c.user_active) {
    pause_user(cpu);
  }

  Frame f;
  f.kind = kind;
  f.tag = tag;
  f.remaining = duration;
  f.on_complete = std::move(on_complete);
  c.stack.push_back(std::move(f));
  trace_event(cpu, frame_entry_event(kind), tag);
  schedule_frame_completion(cpu);
}

void Kernel::schedule_frame_completion(CpuId cpu) {
  CpuState& c = cpus_[cpu];
  Frame& top = c.stack.back();
  top.resumed_at = now();
  top.completion = engine_.schedule_after(top.remaining, [this, cpu] { frame_completed(cpu); });
}

void Kernel::frame_completed(CpuId cpu) {
  CpuState& c = cpus_[cpu];
  OSN_ASSERT_MSG(!c.stack.empty(), "completion with empty stack");
  Frame frame = std::move(c.stack.back());
  trace_event(cpu, frame_exit_event(frame.kind), frame.tag);
  c.stack.pop_back();

  // The epilogue runs logically "at the end of the handler": it may raise
  // softirqs, wake tasks, push nested frames.
  if (frame.on_complete) frame.on_complete(*this);

  if (!c.stack.empty()) {
    // Resume the frame below unless the epilogue pushed a new running frame.
    if (c.stack.back().completion == sim::kInvalidEvent) schedule_frame_completion(cpu);
    return;
  }
  // Outermost kernel exit: pending softirqs run now (Linux: do_softirq on
  // irq_exit / local_bh_enable), one frame at a time — the loop re-enters
  // here after each softirq frame completes.
  if (c.softirq_pending != 0) {
    do_softirq(cpu);
    return;
  }
  resume_context(cpu);
}

void Kernel::pause_user(CpuId cpu) {
  CpuState& c = cpus_[cpu];
  OSN_ASSERT(c.user_active && c.current != kIdlePid);
  engine_.cancel(c.user_completion);
  c.user_completion = sim::kInvalidEvent;
  c.user_active = false;
  Task& t = task(c.current);
  t.user_remaining = sat_sub(t.user_remaining, sat_sub(now(), c.user_resumed_at));
}

void Kernel::resume_context(CpuId cpu) {
  CpuState& c = cpus_[cpu];
  OSN_ASSERT_MSG(c.stack.empty(), "resume_context with kernel frames on the stack");
  if (c.current == kIdlePid) {
    if (c.need_resched || !c.runqueue.empty()) do_schedule(cpu);
    return;  // stay idle
  }
  Task& t = task(c.current);
  if (c.need_resched || t.state != TaskState::kRunning) {
    do_schedule(cpu);
    return;
  }
  resume_user(cpu);
}

void Kernel::resume_user(CpuId cpu) {
  CpuState& c = cpus_[cpu];
  OSN_ASSERT(c.stack.empty() && c.current != kIdlePid);
  Task& t = task(c.current);
  OSN_ASSERT(t.state == TaskState::kRunning);
  if (t.user_remaining > 0) {
    c.user_active = true;
    c.user_resumed_at = now();
    c.user_completion = engine_.schedule_after(t.user_remaining, [this, cpu] {
      CpuState& cs = cpus_[cpu];
      OSN_ASSERT(cs.user_active);
      cs.user_active = false;
      task(cs.current).user_remaining = 0;
      user_segment_done(cpu);
    });
    return;
  }
  user_segment_done(cpu);
}

void Kernel::user_segment_done(CpuId cpu) {
  CpuState& c = cpus_[cpu];
  Task& t = task(c.current);
  OSN_ASSERT(t.user_remaining == 0);

  if (std::holds_alternative<OpTouch>(t.op)) {
    continue_touch(cpu, t);
    return;
  }
  OSN_ASSERT_MSG(std::holds_alternative<OpCompute>(t.op) ||
                     std::holds_alternative<OpNone>(t.op),
                 "blocked op reached user_segment_done");
  t.op = OpNone{};
  request_next_action(cpu, t);
}

void Kernel::request_next_action(CpuId cpu, Task& t) {
  OSN_ASSERT(std::holds_alternative<OpNone>(t.op));
  Action action = t.program->next(*this, t);
  begin_action(cpu, t, std::move(action));
}

void Kernel::begin_action(CpuId cpu, Task& t, Action action) {
  CpuState& c = cpus_[cpu];
  OSN_ASSERT(c.current == t.pid);

  if (auto* compute = std::get_if<ActCompute>(&action)) {
    t.op = OpCompute{};
    t.user_remaining = compute->duration + t.pending_penalty;
    t.pending_penalty = 0;
    resume_user(cpu);
    return;
  }
  if (auto* touch = std::get_if<ActTouch>(&action)) {
    OSN_ASSERT_MSG(touch->region < t.regions.size(), "touch of unknown region");
    OSN_ASSERT_MSG(touch->first_page + touch->pages <= t.regions[touch->region].pages,
                   "touch beyond region");
    t.op = OpTouch{*touch, touch->first_page};
    // The cold-cache penalty applies to the first segment of the touch too.
    t.user_remaining = t.pending_penalty;
    t.pending_penalty = 0;
    if (t.user_remaining > 0) {
      resume_user(cpu);
    } else {
      continue_touch(cpu, t);
    }
    return;
  }
  if (auto* io = std::get_if<ActIo>(&action)) {
    start_io(cpu, t, *io);
    return;
  }
  if (auto* barrier = std::get_if<ActBarrier>(&action)) {
    enter_barrier(cpu, t, *barrier);
    return;
  }
  if (auto* sleep = std::get_if<ActSleep>(&action)) {
    const DurNs duration = sleep->duration;
    const bool precise = sleep->precise;
    // No pid capture: the sleeper is still `current` when its syscall frame
    // completes (switches happen only with an empty frame stack).
    begin_syscall(cpu, t, trace::SyscallNr::kNanosleep,
                  [duration, cpu, precise](Kernel& k) {
      const Pid pid = k.cpus_[cpu].current;
      auto wake_fn = [pid](Kernel& kk, CpuId timer_cpu) {
        Task& tt = kk.task(pid);
        tt.op = OpNone{};
        kk.wake(pid, timer_cpu);
      };
      if (precise) {
        k.arm_hrtimer(cpu, duration, std::move(wake_fn));
      } else {
        k.arm_timer(cpu, duration, std::move(wake_fn));
      }
      k.block_current(cpu, OpSleep{});
    });
    return;
  }
  if (std::holds_alternative<ActBlock>(action)) {
    // Kernel daemons block without a syscall (they are already in the
    // kernel); the task leaves the CPU at the next resume_context.
    block_current(cpu, OpBlocked{});
    resume_context(cpu);
    return;
  }
  OSN_ASSERT(std::holds_alternative<ActExit>(action));
  trace_event(cpu, trace::EventType::kProcessExit, 0);
  t.state = TaskState::kExited;
  if (t.is_app) {
    OSN_ASSERT(live_apps_ > 0);
    if (--live_apps_ == 0) {
      // Grace period: let in-flight frames close before stopping the engine;
      // finish() synthesizes exits for anything still open.
      engine_.schedule_after(kNsPerMs, [this] { engine_.stop(); });
    }
  }
  resume_context(cpu);  // schedules away from the dead task
}

}  // namespace osn::kernel
