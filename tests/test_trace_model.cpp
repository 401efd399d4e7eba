#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "trace/trace_model.hpp"
#include "trace_builder.hpp"

namespace osn::trace {
namespace {

using osn::testing::TraceBuilder;

TEST(TraceModel, TaskLookups) {
  auto model = TraceBuilder(1)
                   .task(1, "rank0", true)
                   .task(9, "rpciod", false, true)
                   .build(100);
  EXPECT_TRUE(model.is_app(1));
  EXPECT_FALSE(model.is_app(9));
  EXPECT_FALSE(model.is_app(77));
  EXPECT_EQ(model.task_name(1), "rank0");
  EXPECT_EQ(model.task_name(kIdlePid), "idle");
  EXPECT_EQ(model.task_name(77), "pid-77");
  ASSERT_NE(model.find_task(9), nullptr);
  EXPECT_TRUE(model.find_task(9)->is_kernel_thread);
}

TEST(TraceModel, AppPidsSorted) {
  auto model = TraceBuilder(1)
                   .task(5, "b", true)
                   .task(2, "a", true)
                   .task(9, "d", false)
                   .build(100);
  EXPECT_EQ(model.app_pids(), (std::vector<Pid>{2, 5}));
}

TEST(TraceModel, TotalAndPerCpuEvents) {
  auto model = TraceBuilder(2)
                   .ev(0, 1, 1, EventType::kSchedWakeup, 2)
                   .ev(0, 2, 1, EventType::kSchedWakeup, 2)
                   .ev(1, 3, 1, EventType::kSchedWakeup, 2)
                   .build(100);
  EXPECT_EQ(model.total_events(), 3u);
  EXPECT_EQ(model.cpu_events(0).size(), 2u);
  EXPECT_EQ(model.cpu_events(1).size(), 1u);
}

TEST(TraceModel, MergedIsTimeOrderedAcrossCpus) {
  auto model = TraceBuilder(2)
                   .ev(0, 10, 1, EventType::kSchedWakeup)
                   .ev(0, 30, 1, EventType::kSchedWakeup)
                   .ev(1, 20, 1, EventType::kSchedWakeup)
                   .build(100);
  auto merged = model.merged();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].timestamp, 10u);
  EXPECT_EQ(merged[1].timestamp, 20u);
  EXPECT_EQ(merged[2].timestamp, 30u);
}

// The cursor merge must give exactly the order of a stable sort of the
// concatenated streams by (timestamp, cpu) — the order every OSNT file is
// written in — including runs of equal timestamps within and across CPUs.
TEST(TraceModel, MergedEqualsStableSortOfStreams) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Xoshiro256 rng(seed);
    const auto n_cpus = static_cast<std::uint16_t>(1 + rng.bounded(9));
    TraceBuilder b(n_cpus);
    for (CpuId cpu = 0; cpu < n_cpus; ++cpu) {
      TimeNs t = rng.bounded(4);
      const std::size_t n = rng.bounded(60);
      for (std::size_t i = 0; i < n; ++i) {
        t += rng.bounded(3);  // 0 repeats a timestamp
        b.ev(cpu, t, 1, EventType::kSchedWakeup, i);
      }
    }
    const TraceModel model = b.build(1000);

    std::vector<tracebuf::EventRecord> want;
    for (CpuId cpu = 0; cpu < n_cpus; ++cpu)
      want.insert(want.end(), model.cpu_events(cpu).begin(), model.cpu_events(cpu).end());
    std::stable_sort(want.begin(), want.end(), [](const auto& x, const auto& y) {
      return x.timestamp != y.timestamp ? x.timestamp < y.timestamp : x.cpu < y.cpu;
    });
    EXPECT_EQ(model.merged(), want) << "seed " << seed;
  }
}

TEST(TraceModel, ValidateAcceptsWellFormed) {
  auto model = TraceBuilder(1)
                   .pair(0, 10, 20, 1, EventType::kIrqEntry, 0)
                   .pair(0, 30, 40, 1, EventType::kSoftirqEntry, 1)
                   .build(100);
  EXPECT_EQ(model.validate(), "");
}

TEST(TraceModel, ValidateAcceptsProperNesting) {
  TraceBuilder b(1);
  b.ev(0, 10, 1, EventType::kSoftirqEntry, 1);
  b.ev(0, 12, 1, EventType::kIrqEntry, 0);  // irq nests inside softirq
  b.ev(0, 14, 1, EventType::kIrqExit, 0);
  b.ev(0, 20, 1, EventType::kSoftirqExit, 1);
  EXPECT_EQ(b.build(100).validate(), "");
}

TEST(TraceModel, ValidateCatchesTimestampRegression) {
  auto model = TraceBuilder(1)
                   .ev(0, 20, 1, EventType::kSchedWakeup)
                   .ev(0, 10, 1, EventType::kSchedWakeup)
                   .build(100);
  EXPECT_NE(model.validate().find("regression"), std::string::npos);
}

TEST(TraceModel, ValidateCatchesExitWithoutEntry) {
  auto model = TraceBuilder(1).ev(0, 10, 1, EventType::kIrqExit, 0).build(100);
  EXPECT_NE(model.validate().find("exit without entry"), std::string::npos);
}

TEST(TraceModel, ValidateCatchesMismatchedExit) {
  auto model = TraceBuilder(1)
                   .ev(0, 10, 1, EventType::kIrqEntry, 0)
                   .ev(0, 20, 1, EventType::kSoftirqExit, 1)
                   .build(100);
  EXPECT_NE(model.validate().find("mismatched"), std::string::npos);
}

TEST(TraceModel, ValidateCatchesUnclosedEntry) {
  auto model = TraceBuilder(1).ev(0, 10, 1, EventType::kIrqEntry, 0).build(100);
  EXPECT_NE(model.validate().find("unclosed"), std::string::npos);
}

TEST(TraceModel, DurationFromMeta) {
  auto model = TraceBuilder(1).build(12345);
  EXPECT_EQ(model.duration(), 12345u);
}

}  // namespace
}  // namespace osn::trace
