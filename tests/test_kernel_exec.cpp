// Execution-frame machinery: tracing discipline, nesting, user-time
// accounting, tick cadence, clean shutdown.
#include <gtest/gtest.h>

#include "kernel_helpers.hpp"

namespace osn::kernel {
namespace {

using osn::testing::compute_program;
using osn::testing::count_events;
using osn::testing::fixed_models;
using osn::testing::KernelRun;
using osn::testing::ScriptProgram;
using trace::EventType;

TEST(KernelExec, SingleTaskRunsAndExits) {
  KernelRun run;
  const Pid pid = run.kernel->spawn("t", compute_program(ms(5), 4), true, 0);
  run.kernel->start();
  run.kernel->run_until_apps_done(sec(10));
  EXPECT_EQ(run.kernel->live_app_count(), 0u);
  EXPECT_EQ(run.kernel->task(pid).state, TaskState::kExited);
  const auto model = run.finish();
  EXPECT_EQ(model.validate(), "");
  EXPECT_EQ(count_events(model, EventType::kProcessExit), 1u);
}

TEST(KernelExec, UserTimeIsConserved) {
  // 20 ms of user work on an otherwise idle node must take at least 20 ms of
  // wall time (noise only ever stretches it).
  KernelRun run;
  run.kernel->spawn("t", compute_program(ms(20), 1), true, 0);
  run.kernel->start();
  run.kernel->run_until_apps_done(sec(10));
  const auto model = run.finish();
  TimeNs exit_ts = 0;
  for (const auto& rec : model.cpu_events(0))
    if (static_cast<EventType>(rec.event) == EventType::kProcessExit)
      exit_ts = rec.timestamp;
  EXPECT_GE(exit_ts, ms(20));
  // On a quiet node the overhead is small: a few ticks plus scheduling.
  EXPECT_LT(exit_ts, ms(21));
}

TEST(KernelExec, TickFiresAtConfiguredFrequencyPerCpu) {
  NodeConfig cfg;
  cfg.n_cpus = 2;
  KernelRun run(cfg);
  run.kernel->spawn("t", compute_program(ms(100), 10), true, 0);
  run.kernel->start();
  run.kernel->engine().run_until(sec(1));
  const auto model = run.finish();
  // 100 Hz per CPU over 1 s, both CPUs tick (one runs the task, one idles).
  std::size_t timer_irqs = 0;
  for (CpuId c = 0; c < model.cpu_count(); ++c) {
    for (const auto& rec : model.cpu_events(c)) {
      if (static_cast<EventType>(rec.event) == EventType::kIrqEntry &&
          rec.arg == static_cast<std::uint64_t>(trace::IrqVector::kTimer))
        ++timer_irqs;
    }
  }
  EXPECT_NEAR(static_cast<double>(timer_irqs), 200.0, 3.0);
}

TEST(KernelExec, EveryTimerIrqRaisesTimerSoftirq) {
  KernelRun run;
  run.kernel->spawn("t", compute_program(ms(50), 4), true, 0);
  run.kernel->start();
  run.kernel->run_until_apps_done(sec(10));
  const auto model = run.finish();
  std::size_t timer_irq = 0, timer_softirq = 0;
  for (CpuId c = 0; c < model.cpu_count(); ++c) {
    for (const auto& rec : model.cpu_events(c)) {
      const auto t = static_cast<EventType>(rec.event);
      if (t == EventType::kIrqEntry &&
          rec.arg == static_cast<std::uint64_t>(trace::IrqVector::kTimer))
        ++timer_irq;
      if (t == EventType::kSoftirqEntry &&
          rec.arg == static_cast<std::uint64_t>(trace::SoftirqNr::kTimer))
        ++timer_softirq;
    }
  }
  EXPECT_EQ(timer_irq, timer_softirq);
  EXPECT_GT(timer_irq, 0u);
}

TEST(KernelExec, NestedInterruptKeepsDiscipline) {
  // A page fault lasting 25 ms is guaranteed to be interrupted by the 10 ms
  // tick: the trace must show irq entry/exit nested inside the fault pair.
  auto models = fixed_models();
  models.pf_minor_anon = stats::DurationModel::fixed(ms(25));
  KernelRun run({}, std::move(models));
  const Pid pid = run.kernel->spawn(
      "t", std::make_unique<ScriptProgram>(std::vector<Action>{ActTouch{0, 0, 1}}),
      true, 0);
  run.kernel->add_region(pid, trace::PageFaultKind::kMinorAnon);
  run.kernel->start();
  run.kernel->run_until_apps_done(sec(10));
  const auto model = run.finish();
  EXPECT_EQ(model.validate(), "");

  bool saw_nested_irq = false;
  int depth_in_fault = 0;
  for (const auto& rec : model.cpu_events(0)) {
    const auto t = static_cast<EventType>(rec.event);
    if (t == EventType::kPageFaultEntry) depth_in_fault = 1;
    if (t == EventType::kPageFaultExit) depth_in_fault = 0;
    if (depth_in_fault == 1 && t == EventType::kIrqEntry) saw_nested_irq = true;
  }
  EXPECT_TRUE(saw_nested_irq);
}

TEST(KernelExec, InterruptedComputeStillFinishes) {
  // The 25 ms fixed fault pushes the task's compute completion out; total
  // wall time must be >= fault + computes.
  auto models = fixed_models();
  models.pf_minor_anon = stats::DurationModel::fixed(ms(25));
  KernelRun run({}, std::move(models));
  const Pid pid = run.kernel->spawn(
      "t",
      std::make_unique<ScriptProgram>(std::vector<Action>{
          ActCompute{ms(2)}, ActTouch{0, 0, 2}, ActCompute{ms(2)}}),
      true, 0);
  run.kernel->add_region(pid, trace::PageFaultKind::kMinorAnon);
  run.kernel->start();
  run.kernel->run_until_apps_done(sec(10));
  const auto model = run.finish();
  EXPECT_EQ(model.validate(), "");
  EXPECT_EQ(run.kernel->task(pid).fault_count, 2u);
  EXPECT_GE(run.kernel->now(), ms(2) + 2 * ms(25) + ms(2));
}

TEST(KernelExec, FinishClosesOpenFrames) {
  KernelRun run;
  run.kernel->spawn("t", compute_program(sec(1), 10), true, 0);
  run.kernel->start();
  // Stop mid-run: ticks will be in flight.
  run.kernel->engine().run_until(ms(15) + 500);
  const auto model = run.finish();
  EXPECT_EQ(model.validate(), "");
}

TEST(KernelExec, DaemonsExistOnBoot) {
  NodeConfig cfg;
  cfg.n_cpus = 4;
  KernelRun run(cfg);
  run.kernel->spawn("t", compute_program(ms(1), 1), true, 0);
  run.kernel->start();
  run.kernel->run_until_apps_done(sec(10));
  const auto infos = run.kernel->task_infos();
  std::size_t kthreads = 0;
  for (const auto& [pid, info] : infos)
    if (info.is_kernel_thread) ++kthreads;
  // rpciod + one events/N per CPU.
  EXPECT_EQ(kthreads, 1u + 4u);
  EXPECT_EQ(run.kernel->events_pids().size(), 4u);
}

TEST(KernelExec, SpawnAfterStartForksInTrace) {
  KernelRun run;
  run.kernel->spawn("first", compute_program(ms(30), 1), true, 0);
  run.kernel->start();
  run.kernel->engine().run_until(ms(5));
  run.kernel->spawn("late", compute_program(ms(1), 1), true, 1);
  run.kernel->run_until_apps_done(sec(10));
  const auto model = run.finish();
  // forks: first + rpciod + 8 events + late
  EXPECT_EQ(count_events(model, trace::EventType::kProcessFork), 11u);
  EXPECT_EQ(model.validate(), "");
}

TEST(KernelExec, DeterministicTraces) {
  auto run_once = [] {
    KernelRun run;
    const Pid pid = run.kernel->spawn(
        "t",
        std::make_unique<ScriptProgram>(std::vector<Action>{
            ActCompute{ms(3)}, ActTouch{0, 0, 8}, ActCompute{ms(3)}}),
        true, 0);
    run.kernel->add_region(pid, trace::PageFaultKind::kMinorAnon);
    run.kernel->start();
    run.kernel->run_until_apps_done(sec(10));
    return run.finish();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(KernelExec, SeedChangesStochasticKernelDurations) {
  auto run_with_seed = [](std::uint64_t seed) {
    NodeConfig cfg;
    cfg.seed = seed;
    // Stochastic models this time.
    osn::testing::KernelRun run(cfg, ActivityModels{});
    run.kernel->spawn("t", compute_program(ms(50), 2), true, 0);
    run.kernel->start();
    run.kernel->run_until_apps_done(sec(10));
    return run.kernel->now();
  };
  EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

}  // namespace
}  // namespace osn::kernel
