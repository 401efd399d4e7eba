// Synthetic OS noise chart and interruption grouping.
#include <gtest/gtest.h>

#include "noise/chart.hpp"
#include "trace_builder.hpp"

namespace osn::noise {
namespace {

using osn::testing::TraceBuilder;
using trace::EventType;

TraceBuilder app_builder() {
  TraceBuilder b(1);
  b.task(1, "app", true);
  return b;
}

TEST(Chart, IntervalLandsInItsQuantum) {
  auto b = app_builder();
  b.pair(0, 1'500, 2'500, 1, EventType::kIrqEntry, 0);
  const auto model_a = b.build(ms(10));
  NoiseAnalysis a(model_a);
  const SyntheticChart chart = build_chart(a, 1, 0, 1'000, 10);
  ASSERT_EQ(chart.quanta.size(), 10u);
  EXPECT_EQ(chart.quanta[1].total, 500u);
  EXPECT_EQ(chart.quanta[2].total, 500u);
  EXPECT_EQ(chart.quanta[0].total, 0u);
  for (std::size_t q = 3; q < 10; ++q) EXPECT_EQ(chart.quanta[q].total, 0u);
}

TEST(Chart, BoundaryStraddlingSplitsProportionally) {
  auto b = app_builder();
  // 4000 ns interval: 25% in quantum 0, 75% in quantum 1 (quantum = 2000).
  b.pair(0, 1'500, 5'500, 1, EventType::kIrqEntry, 0);
  const auto model_a = b.build(ms(1));
  NoiseAnalysis a(model_a);
  const SyntheticChart chart = build_chart(a, 1, 0, 2'000, 4);
  EXPECT_EQ(chart.quanta[0].total, 500u);
  EXPECT_EQ(chart.quanta[1].total, 2'000u);
  EXPECT_EQ(chart.quanta[2].total, 1'500u);
}

TEST(Chart, TotalsConserveChargedTime) {
  auto b = app_builder();
  b.pair(0, 100, 2'300, 1, EventType::kIrqEntry, 0);
  b.pair(0, 5'000, 8'100, 1, EventType::kPageFaultEntry, 0);
  b.pair(0, 12'000, 12'900, 1, EventType::kSoftirqEntry, 1);
  const auto model_a = b.build(ms(1));
  NoiseAnalysis a(model_a);
  const SyntheticChart chart = build_chart(a, 1, 0, 1'000, 20);
  DurNs total = 0;
  for (const auto& q : chart.quanta) total += q.total;
  // Rounding at splits can lose at most a few ns per piece.
  EXPECT_NEAR(static_cast<double>(total), 2'200 + 3'100 + 900, 4);
}

TEST(Chart, ComponentsCarryActivityKinds) {
  auto b = app_builder();
  b.pair(0, 100, 1'100, 1, EventType::kIrqEntry, 0);
  b.pair(0, 1'100, 1'600, 1, EventType::kSoftirqEntry, 1);
  const auto model_a = b.build(ms(1));
  NoiseAnalysis a(model_a);
  const SyntheticChart chart = build_chart(a, 1, 0, 10'000, 2);
  ASSERT_EQ(chart.quanta[0].components.size(), 2u);
  EXPECT_EQ(chart.quanta[0].components[0].kind, ActivityKind::kTimerIrq);
  EXPECT_EQ(chart.quanta[0].components[1].kind, ActivityKind::kTimerSoftirq);
}

TEST(Chart, OtherTasksIgnored) {
  TraceBuilder b(2);
  b.task(1, "a", true).task(2, "b", true);
  b.pair(0, 100, 1'100, 1, EventType::kIrqEntry, 0);
  b.pair(1, 100, 1'100, 2, EventType::kIrqEntry, 0);
  const auto model_a = b.build(ms(1));
  NoiseAnalysis a(model_a);
  const SyntheticChart chart = build_chart(a, 1, 0, 10'000, 2);
  EXPECT_EQ(chart.quanta[0].total, 1'000u);
}

TEST(Chart, NestedIntervalsChargeSelfTimeOnly) {
  auto b = app_builder();
  b.ev(0, 1'000, 1, EventType::kTaskletEntry, 0);
  b.ev(0, 2'000, 1, EventType::kIrqEntry, 0);
  b.ev(0, 3'000, 1, EventType::kIrqExit, 0);
  b.ev(0, 5'000, 1, EventType::kTaskletExit, 0);
  const auto model_a = b.build(ms(1));
  NoiseAnalysis a(model_a);
  const SyntheticChart chart = build_chart(a, 1, 0, 10'000, 1);
  EXPECT_EQ(chart.quanta[0].total, 4'000u);  // not 5000: no double count
}

TEST(Chart, TotalsVectorMatches) {
  auto b = app_builder();
  b.pair(0, 100, 600, 1, EventType::kIrqEntry, 0);
  const auto model_a = b.build(ms(1));
  NoiseAnalysis a(model_a);
  const SyntheticChart chart = build_chart(a, 1, 0, 1'000, 3);
  ASSERT_EQ(chart.quanta.size(), 3u);
  EXPECT_EQ(chart.quanta[0].total, 500u);
  EXPECT_EQ(chart.quanta[1].total, 0u);
  EXPECT_EQ(chart.quanta[2].total, 0u);
}

// A chart and an all-activity timeseries split charged time with one helper:
// when every interval belongs to the charted task, their totals agree bucket
// for bucket, straddling and nested intervals included.
TEST(Chart, AllActivitySeriesMatchesOneTaskChart) {
  auto b = app_builder();
  b.pair(0, 100, 2'300, 1, EventType::kIrqEntry, 0);
  b.pair(0, 5'000, 8'100, 1, EventType::kPageFaultEntry, 0);
  b.ev(0, 9'500, 1, EventType::kTaskletEntry, 0);
  b.ev(0, 10'200, 1, EventType::kIrqEntry, 0);
  b.ev(0, 11'000, 1, EventType::kIrqExit, 0);
  b.ev(0, 13'700, 1, EventType::kTaskletExit, 0);
  const auto model_a = b.build(ms(1));
  NoiseAnalysis a(model_a);
  const SyntheticChart chart = build_chart(a, 1, 0, 1'000, 20);
  const ActivitySeries series = build_activity_series(a, ActivityKind::kMaxKind, 0, 1'000, 20);
  ASSERT_EQ(series.totals.size(), chart.quanta.size());
  DurNs total = 0;
  for (std::size_t q = 0; q < chart.quanta.size(); ++q) {
    EXPECT_EQ(series.totals[q], chart.quanta[q].total) << "quantum " << q;
    total += chart.quanta[q].total;
  }
  EXPECT_GT(total, 0u);
}

TEST(Interruptions, AdjacentIntervalsGroup) {
  // The Fig 2b composite: irq + softirq + schedule + preemption back-to-back.
  auto b = app_builder();
  b.task(9, "events", false, true);
  b.pair(0, 1'000, 3'178, 1, EventType::kIrqEntry, 0);
  b.pair(0, 3'178, 5'020, 1, EventType::kSoftirqEntry, 1);
  b.pair(0, 5'020, 5'402, 1, EventType::kScheduleEntry, 0);
  b.ev(0, 5'402, 1, EventType::kSchedSwitch, trace::pack_switch({1, 9, true}));
  b.ev(0, 7'617, 9, EventType::kSchedSwitch, trace::pack_switch({9, 1, false}));
  const auto model_a = b.build(ms(1));
  NoiseAnalysis a(model_a);
  const auto groups = group_interruptions(a, 1);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].parts.size(), 4u);
  EXPECT_EQ(groups[0].total, 2'178u + 1'842u + 382u + 2'215u);
  const std::string desc = describe_interruption(groups[0]);
  EXPECT_NE(desc.find("timer_interrupt(2178)"), std::string::npos);
  EXPECT_NE(desc.find("preemption(2215)"), std::string::npos);
}

TEST(Interruptions, GapSplitsGroups) {
  auto b = app_builder();
  b.pair(0, 1'000, 2'000, 1, EventType::kIrqEntry, 0);
  b.pair(0, 50'000, 51'000, 1, EventType::kPageFaultEntry, 0);
  const auto model_a = b.build(ms(1));
  NoiseAnalysis a(model_a);
  const auto groups = group_interruptions(a, 1, 200);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].parts[0].kind, ActivityKind::kTimerIrq);
  EXPECT_EQ(groups[1].parts[0].kind, ActivityKind::kPageFault);
}

TEST(Interruptions, NestedIntervalsJoinTheirParentGroup) {
  auto b = app_builder();
  b.ev(0, 1'000, 1, EventType::kTaskletEntry, 0);
  b.ev(0, 2'000, 1, EventType::kIrqEntry, 0);
  b.ev(0, 3'000, 1, EventType::kIrqExit, 0);
  b.ev(0, 5'000, 1, EventType::kTaskletExit, 0);
  const auto model_a = b.build(ms(1));
  NoiseAnalysis a(model_a);
  const auto groups = group_interruptions(a, 1);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].parts.size(), 2u);
  EXPECT_EQ(groups[0].total, 4'000u);  // self times, no double count
}

TEST(Chart, InvalidParamsDie) {
  auto b = app_builder();
  const auto model_a = b.build(ms(1));
  NoiseAnalysis a(model_a);
  EXPECT_DEATH(build_chart(a, 1, 0, 0, 10), "");
  EXPECT_DEATH(build_chart(a, 1, 0, 100, 0), "");
}

}  // namespace
}  // namespace osn::noise
