// Kernel lifecycle: construction, task creation, boot, run loop, trace
// finalization.
#include <algorithm>

#include "common/assert.hpp"
#include "kernel/daemons.hpp"
#include "kernel/kernel.hpp"

namespace osn::kernel {

Kernel::Kernel(NodeConfig config, ActivityModels models, trace::TraceSink& sink)
    : config_(config), models_(std::move(models)), sink_(sink), root_rng_(config.seed) {
  OSN_ASSERT_MSG(config_.n_cpus >= 1, "node needs at least one CPU");
  cpus_.resize(config_.n_cpus);
  timers_.resize(config_.n_cpus);
  for (CpuId c = 0; c < config_.n_cpus; ++c) {
    cpus_[c].id = c;
    cpus_[c].rng = root_rng_.split();
  }
}

Kernel::~Kernel() = default;

Pid Kernel::spawn(std::string name, std::unique_ptr<TaskProgram> program, bool is_app,
                  CpuId home) {
  OSN_ASSERT_MSG(home < config_.n_cpus, "home CPU out of range");
  auto t = std::make_unique<Task>();
  const auto pid = static_cast<Pid>(tasks_.size() + 1);
  t->pid = pid;
  t->name = std::move(name);
  t->is_app = is_app;
  t->is_kthread = !is_app;
  t->program = std::move(program);
  t->cpu = home;
  t->state = TaskState::kRunnable;
  OSN_ASSERT_MSG(t->program != nullptr, "every task needs a program");
  if (is_app) ++live_apps_;
  t->rng = root_rng_.split();
  tasks_.push_back(std::move(t));

  if (started_) {
    trace_event(home, trace::EventType::kProcessFork, pid);
    enqueue_task(home, pid);
    // A newly forked task may immediately preempt (it inherits a fresh, low
    // vruntime via the sleeper clamp in enqueue).
    check_preempt_wakeup(home, task(pid));
  }
  return pid;
}

std::uint32_t Kernel::add_region(Pid pid, std::uint64_t pages, trace::PageFaultKind kind) {
  Task& t = task(pid);
  MemRegion region;
  region.id = static_cast<std::uint32_t>(t.regions.size());
  region.pages = pages;
  region.fault_kind = kind;
  region.present.assign(pages, false);
  t.regions.push_back(std::move(region));
  return t.regions.back().id;
}

Task& Kernel::task(Pid pid) {
  // kIdlePid wraps to the largest index, so one compare rejects it too.
  const std::size_t i = pid - Pid{1};
  OSN_ASSERT_MSG(i < tasks_.size(), "unknown pid");
  return *tasks_[i];
}

const Task& Kernel::task(Pid pid) const {
  const std::size_t i = pid - Pid{1};
  OSN_ASSERT_MSG(i < tasks_.size(), "unknown pid");
  return *tasks_[i];
}

void Kernel::start() {
  OSN_ASSERT_MSG(!started_, "start() called twice");

  // Kernel daemons exist on every HPC compute node in the paper's setup:
  // rpciod (the NFS I/O daemon — "for most of the applications, rpciod is
  // the only kernel daemon that generates OS noise") and the per-CPU
  // events/N workqueue daemons (the `eventd` preempting FTQ in Fig. 2b);
  // like their Linux counterparts the latter are hard-pinned to their CPU.
  rpciod_pid_ = spawn("rpciod", std::make_unique<RpciodProgram>(), /*is_app=*/false,
                      /*home=*/0);
  for (CpuId c = 0; c < config_.n_cpus; ++c) {
    const Pid pid = spawn("events/" + std::to_string(c),
                          std::make_unique<EventsProgram>(), /*is_app=*/false, c);
    task(pid).pinned = c;
    events_pids_.push_back(pid);
  }

  started_ = true;

  for (const auto& t : tasks_) {
    trace_event(t->cpu, trace::EventType::kProcessFork, t->pid);
    enqueue_task(t->cpu, t->pid);
  }

  // Periodic tick per CPU, staggered like unsynchronized local APIC timers.
  for (CpuId c = 0; c < config_.n_cpus; ++c) {
    cpus_[c].next_tick = config_.tick_period + c * config_.tick_stagger;
    const CpuId cpu_id = c;
    engine_.schedule_at(cpus_[c].next_tick, [this, cpu_id] { tick(cpu_id); });
  }

  // Initial dispatch: each CPU schedules whatever landed on its runqueue.
  for (CpuId c = 0; c < config_.n_cpus; ++c) {
    cpus_[c].need_resched = true;
    resume_context(c);
  }
}

void Kernel::run_until_apps_done(TimeNs max_time) {
  OSN_ASSERT_MSG(started_, "start() must run first");
  // Poll for completion between engine events: the cheapest correct check is
  // a periodic watchdog; live_apps_ only changes inside ProcessExit handling,
  // which calls engine_.stop() directly, so this loop mostly guards max_time.
  while (engine_.now() < max_time && live_apps_ > 0 && engine_.pending_count() > 0) {
    const TimeNs chunk = std::min<TimeNs>(engine_.now() + sec(1), max_time);
    engine_.run_until(chunk);
    if (live_apps_ == 0) break;
  }
}

trace::TraceMeta Kernel::finish(const std::string& workload_name) {
  // Close any frames still open (an idle CPU may be mid-tick when the last
  // application exits) so the trace keeps its entry/exit discipline.
  for (CpuId c = 0; c < config_.n_cpus; ++c) {
    CpuState& cs = cpus_[c];
    while (!cs.stack.empty()) {
      const Frame& f = cs.stack.back();
      trace_event(c, frame_exit_event(f.kind), f.tag);
      engine_.cancel(f.completion);
      cs.stack.pop_back();
    }
    if (cs.user_active) {
      engine_.cancel(cs.user_completion);
      cs.user_active = false;
    }
  }

  trace::TraceMeta meta;
  meta.n_cpus = config_.n_cpus;
  meta.tick_period_ns = config_.tick_period;
  meta.start_ns = 0;
  meta.end_ns = engine_.now();
  meta.workload = workload_name;
  return meta;
}

std::map<Pid, trace::TaskInfo> Kernel::task_infos() const {
  std::map<Pid, trace::TaskInfo> out;
  for (const auto& t : tasks_) {
    trace::TaskInfo info;
    info.pid = t->pid;
    info.name = t->name;
    info.is_app = t->is_app;
    info.is_kernel_thread = t->is_kthread;
    out.emplace(t->pid, std::move(info));
  }
  return out;
}

trace::TraceModel build_trace_model(trace::TraceMeta meta,
                                    const std::vector<tracebuf::EventRecord>& records,
                                    std::map<Pid, trace::TaskInfo> tasks) {
  std::vector<std::vector<tracebuf::EventRecord>> per_cpu(meta.n_cpus);
  for (const auto& rec : records) {
    OSN_ASSERT_MSG(rec.cpu < meta.n_cpus, "record cpu out of range");
    per_cpu[rec.cpu].push_back(rec);
  }
  return trace::TraceModel(std::move(meta), std::move(per_cpu), std::move(tasks));
}

}  // namespace osn::kernel
