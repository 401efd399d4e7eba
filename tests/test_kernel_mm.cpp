// Demand paging: first-touch faults, revisits are free, fault kinds, regions
// that grow on touch.
#include <gtest/gtest.h>

#include "kernel_helpers.hpp"

namespace osn::kernel {
namespace {

using osn::testing::count_events;
using osn::testing::fixed_models;
using osn::testing::KernelRun;
using osn::testing::ScriptProgram;
using trace::EventType;

TEST(KernelMm, EachFreshPageFaultsOnce) {
  KernelRun run;
  const Pid pid = run.kernel->spawn(
      "t", std::make_unique<ScriptProgram>(std::vector<Action>{ActTouch{0, 0, 37}}),
      true, 0);
  run.kernel->add_region(pid, trace::PageFaultKind::kMinorAnon);
  run.kernel->start();
  run.kernel->run_until_apps_done(sec(10));
  EXPECT_EQ(run.kernel->task(pid).fault_count, 37u);
  const auto model = run.finish();
  EXPECT_EQ(count_events(model, EventType::kPageFaultEntry), 37u);
  EXPECT_EQ(count_events(model, EventType::kPageFaultExit), 37u);
}

TEST(KernelMm, RetouchDoesNotFaultAgain) {
  KernelRun run;
  const Pid pid = run.kernel->spawn(
      "t",
      std::make_unique<ScriptProgram>(std::vector<Action>{
          ActTouch{0, 0, 10}, ActTouch{0, 0, 10}, ActTouch{0, 5, 10}}),
      true, 0);
  run.kernel->add_region(pid, trace::PageFaultKind::kMinorAnon);
  run.kernel->start();
  run.kernel->run_until_apps_done(sec(10));
  // First touch: 10 faults; second: 0; third overlaps 5 mapped + 5 fresh.
  EXPECT_EQ(run.kernel->task(pid).fault_count, 15u);
}

TEST(KernelMm, CowRegionFaultKindDependsOnWrite) {
  KernelRun run;
  const Pid pid = run.kernel->spawn(
      "t",
      std::make_unique<ScriptProgram>(std::vector<Action>{
          ActTouch{0, 0, 3, /*write=*/true}, ActTouch{0, 4, 3, /*write=*/false}}),
      true, 0);
  run.kernel->add_region(pid, trace::PageFaultKind::kCow);
  run.kernel->start();
  run.kernel->run_until_apps_done(sec(10));
  const auto model = run.finish();
  std::size_t cow = 0, minor = 0;
  for (const auto& rec : model.cpu_events(0)) {
    if (static_cast<EventType>(rec.event) != EventType::kPageFaultEntry) continue;
    if (rec.arg == static_cast<std::uint64_t>(trace::PageFaultKind::kCow)) ++cow;
    if (rec.arg == static_cast<std::uint64_t>(trace::PageFaultKind::kMinorAnon)) ++minor;
  }
  EXPECT_EQ(cow, 3u);
  EXPECT_EQ(minor, 3u);
}

TEST(KernelMm, PerPageUserCostAccrues) {
  // 1000 mapped pages at 30 ns each = 30 us of pure user time on retouch.
  KernelRun run;
  const Pid pid = run.kernel->spawn(
      "t",
      std::make_unique<ScriptProgram>(std::vector<Action>{
          ActTouch{0, 0, 1000, false, 0},  // map for free (0 ns/page)
          ActTouch{0, 0, 1000, false, 30}}),
      true, 0);
  run.kernel->add_region(pid, trace::PageFaultKind::kMinorAnon);
  run.kernel->start();
  run.kernel->run_until_apps_done(sec(10));
  EXPECT_EQ(run.kernel->task(pid).fault_count, 1000u);
  // Wall time >= fault handler time (1000 * 1 us) + 30 us of touching.
  EXPECT_GE(run.kernel->now(), 1000u * 1000u + 30'000u);
}

TEST(KernelMm, FaultDurationFollowsModel) {
  auto models = fixed_models();
  models.pf_minor_anon = stats::DurationModel::fixed(4'380);
  KernelRun run({}, std::move(models));
  const Pid pid = run.kernel->spawn(
      "t", std::make_unique<ScriptProgram>(std::vector<Action>{ActTouch{0, 0, 5}}),
      true, 0);
  run.kernel->add_region(pid, trace::PageFaultKind::kMinorAnon);
  run.kernel->start();
  run.kernel->run_until_apps_done(sec(10));
  const auto model = run.finish();
  TimeNs entry = 0;
  for (const auto& rec : model.cpu_events(0)) {
    const auto t = static_cast<EventType>(rec.event);
    if (t == EventType::kPageFaultEntry) entry = rec.timestamp;
    if (t == EventType::kPageFaultExit) {
      EXPECT_EQ(rec.timestamp - entry, 4'380u);
    }
  }
}

TEST(KernelMm, TouchGrowsRegion) {
  // A region has no fixed size: a touch past its end grows it, and the new
  // pages fault on first touch like any other.
  const auto faults_after = [](std::vector<Action> script) {
    KernelRun run;
    const Pid pid =
        run.kernel->spawn("t", std::make_unique<ScriptProgram>(std::move(script)), true, 0);
    run.kernel->add_region(pid, trace::PageFaultKind::kMinorAnon);
    run.kernel->start();
    run.kernel->run_until_apps_done(sec(10));
    return run.kernel->task(pid).fault_count;
  };
  EXPECT_EQ(faults_after({ActTouch{0, 0, 100}}), 100u);
  // Pages [50, 150): 50 already mapped, 50 grown.
  EXPECT_EQ(faults_after({ActTouch{0, 0, 100}, ActTouch{0, 50, 100}}), 150u);
}

TEST(KernelMm, UnknownRegionDies) {
  KernelRun run;
  run.kernel->spawn(
      "t", std::make_unique<ScriptProgram>(std::vector<Action>{ActTouch{3, 0, 1}}),
      true, 0);
  run.kernel->start();
  EXPECT_DEATH(run.kernel->run_until_apps_done(sec(10)), "unknown region");
}

TEST(KernelMm, MultipleRegionsIndependent) {
  KernelRun run;
  const Pid pid = run.kernel->spawn(
      "t",
      std::make_unique<ScriptProgram>(std::vector<Action>{ActTouch{0, 0, 4},
                                                          ActTouch{1, 0, 6}}),
      true, 0);
  EXPECT_EQ(run.kernel->add_region(pid, trace::PageFaultKind::kMinorAnon), 0u);
  EXPECT_EQ(run.kernel->add_region(pid, trace::PageFaultKind::kFileMinor), 1u);
  run.kernel->start();
  run.kernel->run_until_apps_done(sec(10));
  EXPECT_EQ(run.kernel->task(pid).fault_count, 10u);
}

}  // namespace
}  // namespace osn::kernel
