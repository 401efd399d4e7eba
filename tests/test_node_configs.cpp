// Property sweep over node configurations: the simulator and analysis must
// behave consistently for any CPU count and tick rate.
#include <gtest/gtest.h>

#include <tuple>

#include "kernel_helpers.hpp"
#include "noise/analysis.hpp"

namespace osn::kernel {
namespace {

using osn::testing::compute_program;
using osn::testing::KernelRun;

class NodeConfigSweep
    : public ::testing::TestWithParam<std::tuple<std::uint16_t, DurNs>> {};

TEST_P(NodeConfigSweep, TickRateMatchesConfigAndTraceValidates) {
  const auto [n_cpus, tick] = GetParam();
  NodeConfig cfg;
  cfg.n_cpus = n_cpus;
  cfg.tick_period = tick;
  KernelRun run(cfg);
  for (std::uint16_t c = 0; c < n_cpus; ++c)
    run.kernel->spawn("t" + std::to_string(c), compute_program(ms(200), 1), true,
                      static_cast<CpuId>(c));
  run.kernel->start();
  run.kernel->run_until_apps_done(sec(30));
  const auto model = run.finish();
  ASSERT_EQ(model.validate(), "");

  noise::NoiseAnalysis analysis(model);
  const auto stats = analysis.activity_stats(noise::ActivityKind::kTimerIrq);
  const double expected_freq = 1e9 / static_cast<double>(tick);
  EXPECT_NEAR(stats.freq_ev_per_sec, expected_freq, expected_freq * 0.06);
  // Every application rank accrues periodic noise.
  for (const Pid pid : model.app_pids()) {
    const auto bd = analysis.category_breakdown(pid);
    EXPECT_GT(bd[static_cast<std::size_t>(noise::NoiseCategory::kPeriodic)], 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NodeConfigSweep,
    ::testing::Combine(::testing::Values<std::uint16_t>(1, 2, 4, 8),
                       ::testing::Values<DurNs>(10 * kNsPerMs, 4 * kNsPerMs)));

TEST(NodeConfigs, RebalancePeriodZeroDisablesRebalance) {
  NodeConfig cfg;
  cfg.n_cpus = 2;
  cfg.rebalance_period_ticks = 0;
  KernelRun run(cfg);
  run.kernel->spawn("t", compute_program(ms(100), 1), true, 0);
  run.kernel->start();
  run.kernel->run_until_apps_done(sec(10));
  const auto model = run.finish();
  noise::NoiseAnalysis analysis(model);
  EXPECT_EQ(analysis.activity_stats(noise::ActivityKind::kRebalanceSoftirq).count, 0u);
}

TEST(NodeConfigs, RcuPeriodZeroDisablesRcu) {
  NodeConfig cfg;
  cfg.rcu_period_ticks = 0;
  KernelRun run(cfg);
  run.kernel->spawn("t", compute_program(ms(100), 1), true, 0);
  run.kernel->start();
  run.kernel->run_until_apps_done(sec(10));
  const auto model = run.finish();
  noise::NoiseAnalysis analysis(model);
  EXPECT_EQ(analysis.activity_stats(noise::ActivityKind::kRcuSoftirq).count, 0u);
}

TEST(NodeConfigs, FilteredSinkDropsEventsEndToEnd) {
  // The paper's "filters" applied at the tracing layer: disabling the page
  // fault tracepoints removes them from the offline analysis entirely.
  trace::VectorSink inner;
  trace::FilteredSink filtered(inner);
  filtered.set_enabled(trace::EventType::kPageFaultEntry, false);
  filtered.set_enabled(trace::EventType::kPageFaultExit, false);

  NodeConfig cfg;
  Kernel kernel(cfg, osn::testing::fixed_models(), filtered);
  const Pid pid = kernel.spawn(
      "t",
      std::make_unique<osn::testing::ScriptProgram>(
          std::vector<Action>{ActTouch{0, 0, 10}, ActCompute{ms(1)}}),
      true, 0);
  kernel.add_region(pid, trace::PageFaultKind::kMinorAnon);
  kernel.start();
  kernel.run_until_apps_done(sec(10));
  trace::TraceMeta meta = kernel.finish("filtered");
  const auto model = build_trace_model(std::move(meta), inner.records(),
                                       kernel.task_infos());
  // Faults happened (kernel counted them) but were filtered from the trace.
  EXPECT_EQ(kernel.task(pid).fault_count, 10u);
  for (const auto& rec : model.cpu_events(0)) {
    EXPECT_NE(static_cast<trace::EventType>(rec.event),
              trace::EventType::kPageFaultEntry);
  }
}

}  // namespace
}  // namespace osn::kernel
