// Plan-layer unit tests: the shared ms→ns conversion, the pinned bucket-count
// edge cases, and the fingerprint that keys the result cache.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "query/plan.hpp"

namespace osn::query {
namespace {

TEST(NsFromMs, MatchesHistoricalCastInRange) {
  // Every front end used to do static_cast<TimeNs>(ms * 1e6) raw; the shared
  // helper must produce the same nanoseconds so old windows stay
  // byte-identical through the planner.
  for (const double ms : {0.0, 0.5, 1.0, 1.5, 123.456, 1e6, 9.75e9}) {
    const auto ns = ns_from_ms(ms);
    ASSERT_TRUE(ns.has_value()) << ms;
    EXPECT_EQ(*ns, static_cast<TimeNs>(ms * static_cast<double>(kNsPerMs))) << ms;
  }
}

TEST(NsFromMs, RejectsNonFiniteAndNegative) {
  EXPECT_FALSE(ns_from_ms(std::numeric_limits<double>::quiet_NaN()).has_value());
  EXPECT_FALSE(ns_from_ms(std::numeric_limits<double>::infinity()).has_value());
  EXPECT_FALSE(ns_from_ms(-std::numeric_limits<double>::infinity()).has_value());
  EXPECT_FALSE(ns_from_ms(-1.0).has_value());
  EXPECT_FALSE(ns_from_ms(-0.001).has_value());
}

TEST(NsFromMs, SaturatesInsteadOfOverflowing) {
  // ms * 1e6 >= 2^64 made the old cast undefined behaviour; the helper pins
  // it to "the open end of time" instead.
  EXPECT_EQ(ns_from_ms(1e300), kTimeInfinity);
  EXPECT_EQ(ns_from_ms(18446744073709.552), kTimeInfinity);  // just past 2^64 ns
  EXPECT_EQ(ns_from_ms(std::numeric_limits<double>::max()), kTimeInfinity);
}

TEST(WindowFromMs, AppliesValidAndLeavesPlanOnReject) {
  Plan plan;
  EXPECT_TRUE(window_from_ms(plan, 0.5, 1.5));
  EXPECT_EQ(plan.t0, static_cast<TimeNs>(0.5 * 1e6));
  EXPECT_EQ(plan.t1, static_cast<TimeNs>(1.5 * 1e6));

  Plan untouched;
  EXPECT_FALSE(window_from_ms(untouched, 2.0, 2.0));  // empty
  EXPECT_FALSE(window_from_ms(untouched, 3.0, 1.0));  // inverted
  EXPECT_FALSE(window_from_ms(untouched, -1.0, 1.0));
  EXPECT_FALSE(
      window_from_ms(untouched, 0.0, std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(untouched.t0, 0u);
  EXPECT_EQ(untouched.t1, kTimeInfinity);
}

TEST(WindowFromMs, SubMillisecondWindowsConvertWithoutCollapsing) {
  // 0.0001 ms is 100 ns — distinct endpoints must stay distinct.
  Plan plan;
  EXPECT_TRUE(window_from_ms(plan, 0.0001, 0.0002));
  EXPECT_EQ(plan.t0, 100u);
  EXPECT_EQ(plan.t1, 200u);
}

TEST(ChartBuckets, PinnedEdgeCases) {
  // The cases every duplicated caller used to get subtly wrong:
  EXPECT_EQ(chart_buckets(0, kNsPerMs), 1u);              // zero-duration trace
  EXPECT_EQ(chart_buckets(1, kNsPerMs), 1u);              // quantum > duration
  EXPECT_EQ(chart_buckets(kNsPerMs - 1, kNsPerMs), 1u);   // just under one quantum
  EXPECT_EQ(chart_buckets(kNsPerMs, kNsPerMs), 1u);       // exactly one quantum
  EXPECT_EQ(chart_buckets(kNsPerMs + 1, kNsPerMs), 1u);   // floor division
  EXPECT_EQ(chart_buckets(10 * kNsPerMs, kNsPerMs), 10u);
  // The grid is bounded: kMaxBuckets is the last count allowed, and a grid
  // the size of the whole time range is a bad plan, not an allocation.
  EXPECT_EQ(chart_buckets(kMaxBuckets, 1), kMaxBuckets);
  EXPECT_EQ(chart_buckets(kMaxBuckets * kNsPerUs + kNsPerUs - 1, kNsPerUs), kMaxBuckets);
  for (const TimeNs duration : {TimeNs{kMaxBuckets + 1}, kTimeInfinity}) {
    try {
      (void)chart_buckets(duration, 1);
      ADD_FAILURE() << "no PlanError for " << duration << " buckets";
    } catch (const PlanError& e) {
      EXPECT_EQ(e.kind(), PlanError::Kind::kBadPlan);
    }
  }
}

TEST(Fingerprint, ExcludesJobsAndIncludesEverythingElse) {
  Plan a;
  Plan b;
  b.options.jobs = 7;  // worker count never changes the produced bytes
  EXPECT_EQ(fingerprint(a), fingerprint(b));

  Plan nonest = a;
  nonest.options.resolve_nesting = false;
  EXPECT_NE(fingerprint(a), fingerprint(nonest));

  Plan windowed = a;
  windowed.t0 = 1;
  windowed.t1 = 2;
  EXPECT_NE(fingerprint(a), fingerprint(windowed));

  Plan cpu0 = a;
  cpu0.cpu = 0;
  EXPECT_NE(fingerprint(a), fingerprint(cpu0));
}

TEST(Fingerprint, AggregateIrrelevantFieldsAreExcluded) {
  // A summary plan fingerprints the same whatever its chart/topk knobs say —
  // those fields cannot affect the summary document.
  Plan a;
  Plan b;
  b.task = 42;
  b.quantum = 123;
  b.k = 9;
  b.activity = noise::ActivityKind::kTimerIrq;
  EXPECT_EQ(fingerprint(a), fingerprint(b));

  Plan chart1;
  chart1.aggregate = Aggregate::kChart;
  Plan chart2 = chart1;
  chart2.quantum = 500 * kNsPerUs;
  EXPECT_NE(fingerprint(chart1), fingerprint(chart2));
  Plan chart3 = chart1;
  chart3.task = 1;
  EXPECT_NE(fingerprint(chart1), fingerprint(chart3));

  Plan topk5;
  topk5.aggregate = Aggregate::kTopK;
  Plan topk9 = topk5;
  topk9.k = 9;
  EXPECT_NE(fingerprint(topk5), fingerprint(topk9));

  Plan ts_all;
  ts_all.aggregate = Aggregate::kTimeseries;
  Plan ts_irq = ts_all;
  ts_irq.activity = noise::ActivityKind::kTimerIrq;
  EXPECT_NE(fingerprint(ts_all), fingerprint(ts_irq));
}

TEST(Fingerprint, DistinctAggregatesNeverCollide) {
  Plan plan;
  std::string seen[4];
  int i = 0;
  for (const Aggregate a : {Aggregate::kSummary, Aggregate::kChart,
                            Aggregate::kTimeseries, Aggregate::kTopK}) {
    plan.aggregate = a;
    seen[i++] = fingerprint(plan);
  }
  for (int x = 0; x < 4; ++x)
    for (int y = x + 1; y < 4; ++y) EXPECT_NE(seen[x], seen[y]);
}

TEST(ActivityFromName, RoundTripsEveryKind) {
  for (int k = 0; k < static_cast<int>(noise::ActivityKind::kMaxKind); ++k) {
    const auto kind = static_cast<noise::ActivityKind>(k);
    const auto back = noise::activity_from_name(noise::activity_name(kind));
    ASSERT_TRUE(back.has_value()) << k;
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(noise::activity_from_name("no such activity").has_value());
  EXPECT_FALSE(noise::activity_from_name("").has_value());
}

}  // namespace
}  // namespace osn::query
