// Interval building: entry/exit pairing, nested-event (self vs inclusive)
// resolution, preemption derivation, communication windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "noise/index_aggregate.hpp"
#include "noise/interval.hpp"
#include "noise/streaming.hpp"
#include "trace/event_source.hpp"
#include "trace/trace_error.hpp"
#include "trace_builder.hpp"

namespace osn::noise {
namespace {

using osn::testing::TraceBuilder;
using trace::EventType;

TEST(Interval, SimplePairBecomesInterval) {
  auto model = TraceBuilder(1)
                   .task(1, "app", true)
                   .pair(0, 100, 2'278, 1, EventType::kIrqEntry,
                         static_cast<std::uint64_t>(trace::IrqVector::kTimer))
                   .build();
  const IntervalSet set = build_intervals(model);
  ASSERT_EQ(set.kernel_by_cpu[0].size(), 1u);
  const Interval& iv = set.kernel_by_cpu[0][0];
  EXPECT_EQ(iv.kind, ActivityKind::kTimerIrq);
  EXPECT_EQ(iv.task, 1u);
  EXPECT_EQ(iv.start, 100u);
  EXPECT_EQ(iv.end, 2'278u);
  EXPECT_EQ(iv.inclusive(), 2'178u);
  EXPECT_EQ(iv.self, 2'178u);
  EXPECT_EQ(iv.depth, 0u);
}

TEST(Interval, NestedChildSubtractedFromParentSelf) {
  // The paper's canonical case: a timer interrupt inside a tasklet.
  TraceBuilder b(1);
  b.task(1, "app", true);
  b.ev(0, 1'000, 1, EventType::kTaskletEntry,
       static_cast<std::uint64_t>(trace::TaskletId::kNetRx));
  b.ev(0, 1'500, 1, EventType::kIrqEntry,
       static_cast<std::uint64_t>(trace::IrqVector::kTimer));
  b.ev(0, 3'500, 1, EventType::kIrqExit,
       static_cast<std::uint64_t>(trace::IrqVector::kTimer));
  b.ev(0, 6'000, 1, EventType::kTaskletExit,
       static_cast<std::uint64_t>(trace::TaskletId::kNetRx));
  const IntervalSet set = build_intervals(b.build());
  ASSERT_EQ(set.kernel_by_cpu[0].size(), 2u);
  // Sorted by start: tasklet first.
  const Interval& tasklet = set.kernel_by_cpu[0][0];
  const Interval& irq = set.kernel_by_cpu[0][1];
  EXPECT_EQ(tasklet.kind, ActivityKind::kNetRxTasklet);
  EXPECT_EQ(tasklet.inclusive(), 5'000u);
  EXPECT_EQ(tasklet.self, 3'000u);  // 5000 - nested 2000
  EXPECT_EQ(irq.kind, ActivityKind::kTimerIrq);
  EXPECT_EQ(irq.self, 2'000u);
  EXPECT_EQ(irq.depth, 1u);
  // Self times sum to wall time: no double counting.
  EXPECT_EQ(tasklet.self + irq.self, tasklet.inclusive());
}

TEST(Interval, DoubleNestingResolvesEachLevel) {
  TraceBuilder b(1);
  b.task(1, "app", true);
  b.ev(0, 0, 1, EventType::kSyscallEntry, 0);
  b.ev(0, 100, 1, EventType::kSoftirqEntry, 1);
  b.ev(0, 200, 1, EventType::kIrqEntry, 0);
  b.ev(0, 300, 1, EventType::kIrqExit, 0);
  b.ev(0, 500, 1, EventType::kSoftirqExit, 1);
  b.ev(0, 1'000, 1, EventType::kSyscallExit, 0);
  const IntervalSet set = build_intervals(b.build());
  ASSERT_EQ(set.kernel_by_cpu[0].size(), 3u);
  EXPECT_EQ(set.kernel_by_cpu[0][0].self, 600u);  // syscall: 1000 - 400 (softirq)
  EXPECT_EQ(set.kernel_by_cpu[0][1].self, 300u);  // softirq: 400 - 100 (irq)
  EXPECT_EQ(set.kernel_by_cpu[0][2].self, 100u);  // irq
}

TEST(Interval, SequentialSiblingsBothChargedToParent) {
  TraceBuilder b(1);
  b.task(1, "app", true);
  b.ev(0, 0, 1, EventType::kSyscallEntry, 0);
  b.pair(0, 100, 200, 1, EventType::kIrqEntry, 0);
  b.pair(0, 300, 450, 1, EventType::kIrqEntry, 0);
  b.ev(0, 1'000, 1, EventType::kSyscallExit, 0);
  const IntervalSet set = build_intervals(b.build());
  ASSERT_EQ(set.kernel_by_cpu[0].size(), 3u);
  EXPECT_EQ(set.kernel_by_cpu[0][0].self, 1'000u - 100u - 150u);
}

TEST(Interval, PreemptionDerivedFromSwitches) {
  TraceBuilder b(1);
  b.task(1, "app", true).task(9, "rpciod", false, true);
  // app switched out runnable at t=1000, rpciod runs, app back at t=3215.
  b.ev(0, 1'000, 1, EventType::kSchedSwitch, trace::pack_switch({1, 9, true}));
  b.ev(0, 3'215, 9, EventType::kSchedSwitch, trace::pack_switch({9, 1, false}));
  const IntervalSet set = build_intervals(b.build());
  ASSERT_EQ(set.preemption.size(), 1u);
  const Interval& p = set.preemption[0];
  EXPECT_EQ(p.kind, ActivityKind::kPreemption);
  EXPECT_EQ(p.task, 1u);
  EXPECT_EQ(p.detail, 9u);  // preemptor
  EXPECT_EQ(p.self, 2'215u);
}

TEST(Interval, VoluntarySwitchIsNotPreemption) {
  TraceBuilder b(1);
  b.task(1, "app", true);
  b.ev(0, 1'000, 1, EventType::kSchedSwitch, trace::pack_switch({1, 0, false}));
  b.ev(0, 9'000, 0, EventType::kSchedSwitch, trace::pack_switch({0, 1, false}));
  EXPECT_TRUE(build_intervals(b.build()).preemption.empty());
}

TEST(Interval, PreemptionClosesOnOtherCpu) {
  // Preempted on CPU 0, migrated, resumes on CPU 1.
  TraceBuilder b(2);
  b.task(1, "app", true).task(9, "rpciod", false, true);
  b.ev(0, 1'000, 1, EventType::kSchedSwitch, trace::pack_switch({1, 9, true}));
  b.ev(1, 5'000, 0, EventType::kSchedSwitch, trace::pack_switch({0, 1, false}));
  const IntervalSet set = build_intervals(b.build());
  ASSERT_EQ(set.preemption.size(), 1u);
  EXPECT_EQ(set.preemption[0].inclusive(), 4'000u);
  EXPECT_EQ(set.preemption[0].cpu, 0u);  // where it was preempted
}

TEST(Interval, DanglingPreemptionClosedAtTraceEnd) {
  TraceBuilder b(1);
  b.task(1, "app", true).task(9, "d", false, true);
  b.ev(0, 1'000, 1, EventType::kSchedSwitch, trace::pack_switch({1, 9, true}));
  const IntervalSet set = build_intervals(b.build(10'000));
  ASSERT_EQ(set.preemption.size(), 1u);
  EXPECT_EQ(set.preemption[0].end, 10'000u);
}

TEST(Interval, KernelDaemonPreemptionNotTracked) {
  // Only application tasks get preemption intervals.
  TraceBuilder b(1);
  b.task(8, "kd1", false, true).task(9, "kd2", false, true);
  b.ev(0, 1'000, 8, EventType::kSchedSwitch, trace::pack_switch({8, 9, true}));
  b.ev(0, 2'000, 9, EventType::kSchedSwitch, trace::pack_switch({9, 8, false}));
  EXPECT_TRUE(build_intervals(b.build()).preemption.empty());
}

TEST(Interval, CommWindowsFromBarrierMarks) {
  TraceBuilder b(1);
  b.task(1, "app", true);
  b.ev(0, 1'000, 1, EventType::kAppMark,
       static_cast<std::uint64_t>(trace::AppMark::kBarrierEnter));
  b.ev(0, 5'000, 1, EventType::kAppMark,
       static_cast<std::uint64_t>(trace::AppMark::kBarrierExit));
  const IntervalSet set = build_intervals(b.build());
  ASSERT_EQ(set.comm.size(), 1u);
  EXPECT_EQ(set.comm[0].task, 1u);
  EXPECT_EQ(set.comm[0].start, 1'000u);
  EXPECT_EQ(set.comm[0].end, 5'000u);
}

TEST(Interval, UnclosedCommWindowEndsAtTraceEnd) {
  TraceBuilder b(1);
  b.task(1, "app", true);
  b.ev(0, 1'000, 1, EventType::kAppMark,
       static_cast<std::uint64_t>(trace::AppMark::kBarrierEnter));
  const IntervalSet set = build_intervals(b.build(8'000));
  ASSERT_EQ(set.comm.size(), 1u);
  EXPECT_EQ(set.comm[0].end, 8'000u);
}

TEST(Interval, OutputSortedByStart) {
  TraceBuilder b(2);
  b.task(1, "app", true);
  b.pair(1, 500, 600, 1, EventType::kIrqEntry, 0);
  b.pair(0, 100, 200, 1, EventType::kIrqEntry, 0);
  b.pair(0, 900, 950, 1, EventType::kIrqEntry, 0);
  const IntervalSet set = build_intervals(b.build());
  ASSERT_EQ(set.kernel_by_cpu.size(), 2u);
  ASSERT_EQ(set.kernel_by_cpu[0].size(), 2u);
  ASSERT_EQ(set.kernel_by_cpu[1].size(), 1u);
  EXPECT_LT(set.kernel_by_cpu[0][0].start, set.kernel_by_cpu[0][1].start);
  const std::vector<Interval> all = merge_kernel_shards(set.kernel_by_cpu);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_LT(all[0].start, all[1].start);
  EXPECT_LT(all[1].start, all[2].start);
}

TEST(Interval, ZeroLengthIntervalKeepsShardSorted) {
  // A zero-length net interrupt, then a timer interrupt entered at the same
  // timestamp and depth: entry order is not interval_before order here, and
  // the filter and merge rely on sorted shards.
  TraceBuilder b(1);
  b.task(1, "app", true);
  b.pair(0, 100, 100, 1, EventType::kIrqEntry,
         static_cast<std::uint64_t>(trace::IrqVector::kNet));
  b.pair(0, 100, 200, 1, EventType::kIrqEntry,
         static_cast<std::uint64_t>(trace::IrqVector::kTimer));
  const IntervalSet set = build_intervals(b.build());
  const std::vector<Interval>& shard = set.kernel_by_cpu[0];
  ASSERT_EQ(shard.size(), 2u);
  EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end(), interval_before));
  EXPECT_EQ(shard[0].kind, ActivityKind::kTimerIrq);
  EXPECT_EQ(shard[1].kind, ActivityKind::kNetIrq);
  EXPECT_EQ(shard[1].inclusive(), 0u);
}

TEST(Interval, ActivityOfMapsPaperNames) {
  EXPECT_EQ(activity_of(EventType::kSoftirqEntry,
                        static_cast<std::uint64_t>(trace::SoftirqNr::kTimer)),
            ActivityKind::kTimerSoftirq);
  EXPECT_EQ(activity_of(EventType::kSoftirqEntry,
                        static_cast<std::uint64_t>(trace::SoftirqNr::kSched)),
            ActivityKind::kRebalanceSoftirq);
  EXPECT_EQ(activity_of(EventType::kTaskletEntry,
                        static_cast<std::uint64_t>(trace::TaskletId::kNetTx)),
            ActivityKind::kNetTxTasklet);
  EXPECT_EQ(activity_of(EventType::kPageFaultEntry, 0), ActivityKind::kPageFault);
}

/// What StreamingStats makes of a damaged model. It pairs kernel records
/// only and cannot tell where a stream ends, so a task-scan fault is out of
/// its scope and an interval open at the end is its open_frames().
enum class Live { kSameError, kOpenAtEnd, kTaskScanOnly };

// Damaged streams are input conditions, not programming errors: every sink
// of the interval scanner meets them without aborting. The offline scan and
// StreamingStats throw the reader's typed error (the CLI's exit 1, the
// server's trace_error) with one text; the index aggregator vetoes its block.
void expect_scan_error(const trace::TraceModel& model, const std::string& what,
                       Live live = Live::kSameError) {
  for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
    ThreadPool pool(std::max<std::size_t>(workers, 1));
    try {
      (void)build_intervals(model, workers == 0 ? nullptr : &pool);
      ADD_FAILURE() << "expected TraceReadError: " << what;
    } catch (const trace::TraceReadError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
  }

  // One CPU's stream after another: the offline scan's first fault first.
  StreamingStats live_stats;
  try {
    for (CpuId cpu = 0; cpu < model.cpu_count(); ++cpu)
      for (const auto& rec : model.cpu_events(cpu)) live_stats.consume(rec);
    EXPECT_NE(live, Live::kSameError) << "StreamingStats accepted: " << what;
    EXPECT_EQ(live_stats.open_frames() != 0, live == Live::kOpenAtEnd) << what;
  } catch (const trace::TraceReadError& e) {
    EXPECT_EQ(live, Live::kSameError) << e.what();
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }

  // The writer's merged order.
  IndexAggregator agg;
  for (const auto& rec : model.merged()) agg.on_record(rec);
  EXPECT_FALSE(agg.take_tail(model.meta()).has_value()) << what;
}

TEST(Interval, UnmatchedExitThrows) {
  TraceBuilder b(1);
  b.task(1, "app", true);
  b.ev(0, 100, 1, EventType::kIrqExit, 0);
  expect_scan_error(b.build(), "cpu 0: exit without entry at 100 ns");
}

TEST(Interval, MismatchedExitThrows) {
  TraceBuilder b(2);
  b.task(1, "app", true);
  b.pair(0, 50, 60, 1, EventType::kIrqEntry, 0);
  b.ev(1, 100, 1, EventType::kIrqEntry, 0);
  b.ev(1, 200, 1, EventType::kSoftirqExit, 1);
  expect_scan_error(b.build(), "cpu 1: mismatched exit at 200 ns");
}

TEST(Interval, UnclosedIntervalThrows) {
  // What a trace cut mid-interval looks like to the analysis.
  TraceBuilder b(2);
  b.task(1, "app", true);
  b.ev(1, 100, 1, EventType::kSyscallEntry, 0);
  b.pair(1, 150, 170, 1, EventType::kIrqEntry, 0);
  expect_scan_error(b.build(),
                    "cpu 1: kernel interval still open at end of trace, opened at 100 ns",
                    Live::kOpenAtEnd);
}

TEST(Interval, UnmappedEntryInTraceThrows) {
  TraceBuilder b(1);
  b.task(1, "app", true);
  b.ev(0, 100, 1, EventType::kIrqEntry, 999);
  expect_scan_error(b.build(), "cpu 0: unmapped entry event at 100 ns");
}

TEST(Interval, ExitBeforeEntryThrows) {
  // Readers reject per-CPU time running backwards; a model built in memory
  // can still carry it.
  TraceBuilder b(1);
  b.task(1, "app", true);
  b.ev(0, 200, 1, EventType::kIrqEntry, 0);
  b.ev(0, 100, 1, EventType::kIrqExit, 0);
  expect_scan_error(b.build(), "cpu 0: exit before its entry at 100 ns");
}

TEST(Interval, StreamingStatsThrowsOnDamagedSource) {
  // The merged-order drain of an EventSource meets the same typed error.
  TraceBuilder b(2);
  b.task(1, "app", true);
  b.pair(0, 50, 60, 1, EventType::kIrqEntry, 0);
  b.ev(1, 100, 1, EventType::kIrqEntry, 0);
  b.ev(1, 200, 1, EventType::kSoftirqExit, 1);
  trace::ModelEventSource source(b.build());
  StreamingStats live_stats;
  try {
    live_stats.consume(source);
    ADD_FAILURE() << "expected TraceReadError";
  } catch (const trace::TraceReadError& e) {
    EXPECT_STREQ(e.what(), "cpu 1: mismatched exit at 200 ns");
  }
}

TEST(Interval, NestedPreemptionThrows) {
  TraceBuilder b(1);
  b.task(1, "app", true).task(9, "d", false, true);
  b.ev(0, 100, 1, EventType::kSchedSwitch, trace::pack_switch({1, 9, true}));
  b.ev(0, 200, 1, EventType::kSchedSwitch, trace::pack_switch({1, 9, true}));
  expect_scan_error(b.build(), "cpu 0: nested preemption of one task at 200 ns",
                    Live::kTaskScanOnly);
}

TEST(Interval, FirstDamagedCpuIsReportedAtAnyJobs) {
  // Several damaged shards plus a damaged task scan: the serial order's
  // first error (lowest CPU) wins in the sharded build too.
  TraceBuilder b(3);
  b.task(1, "app", true).task(9, "d", false, true);
  b.ev(0, 100, 1, EventType::kSchedSwitch, trace::pack_switch({1, 9, true}));
  b.ev(0, 200, 1, EventType::kSchedSwitch, trace::pack_switch({1, 9, true}));
  b.ev(1, 300, 1, EventType::kIrqExit, 0);
  b.ev(2, 50, 1, EventType::kIrqExit, 0);
  expect_scan_error(b.build(), "cpu 1: exit without entry at 300 ns");
}

TEST(Interval, UnmappedEntryEventIsUnmapped) {
  // An unmapped entry is damaged input, reported by the scanners as a
  // ScanFault; the mapping itself never aborts.
  EXPECT_FALSE(activity_of(EventType::kSchedSwitch, 0).has_value());
  EXPECT_FALSE(activity_of(EventType::kIrqEntry, 999).has_value());
  EXPECT_FALSE(activity_of(EventType::kSoftirqEntry,
                           static_cast<std::uint64_t>(trace::SoftirqNr::kBlock))
                   .has_value());
}

TEST(Interval, MergeKernelShardsOrdersByStartDepthCpu) {
  auto iv = [](TimeNs start, std::uint16_t depth, CpuId cpu) {
    Interval i;
    i.kind = ActivityKind::kTimerIrq;
    i.cpu = cpu;
    i.start = start;
    i.end = start + 10;
    i.depth = depth;
    return i;
  };
  // Same-start ticks on every CPU (the common case: the periodic timer
  // fires on all CPUs at the same tick timestamp) order by cpu.
  std::vector<std::vector<Interval>> shards = {
      {iv(100, 0, 0), iv(100, 1, 0), iv(500, 0, 0)},
      {iv(100, 0, 1), iv(300, 0, 1)},
      {},
      {iv(50, 0, 3)},
  };
  const std::vector<Interval> merged = merge_kernel_shards(shards);
  ASSERT_EQ(merged.size(), 6u);
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end(), interval_before));
  EXPECT_EQ(merged[0].cpu, 3u);
  EXPECT_EQ(merged[1].cpu, 0u);   // (100, depth 0, cpu 0)
  EXPECT_EQ(merged[2].cpu, 1u);   // (100, depth 0, cpu 1)
  EXPECT_EQ(merged[3].depth, 1u);  // (100, depth 1, cpu 0)
  EXPECT_EQ(merged[4].start, 300u);
  EXPECT_EQ(merged[5].start, 500u);
}

TEST(Interval, MergeShardsTakesOnlyKeptPositions) {
  auto iv = [](TimeNs start, CpuId cpu) {
    Interval i;
    i.kind = ActivityKind::kTimerIrq;
    i.cpu = cpu;
    i.start = start;
    i.end = start + 10;
    return i;
  };
  const std::vector<Interval> a = {iv(10, 0), iv(20, 0), iv(30, 0), iv(40, 0)};
  const std::vector<Interval> b = {iv(15, 1), iv(25, 1), iv(35, 1)};
  const std::vector<std::uint32_t> keep_a = {1, 3};
  const std::vector<std::uint32_t> keep_none;
  const std::vector<Interval> merged =
      merge_shards({ShardView{&a, &keep_a}, ShardView{&b, nullptr}, ShardView{&a, &keep_none}});
  std::vector<TimeNs> starts;
  for (const Interval& i : merged) starts.push_back(i.start);
  EXPECT_EQ(starts, (std::vector<TimeNs>{15, 20, 25, 35, 40}));

  // Heads equal under interval_before (self is not a key) come from the
  // lower view first.
  std::vector<Interval> x = {iv(10, 0)}, y = {iv(10, 0)};
  x[0].self = 1;
  y[0].self = 2;
  EXPECT_EQ(merge_shards({ShardView{&x, nullptr}, ShardView{&y, nullptr}})[0].self, 1u);
  EXPECT_EQ(merge_shards({ShardView{&y, nullptr}, ShardView{&x, nullptr}})[0].self, 2u);
}

}  // namespace
}  // namespace osn::noise
