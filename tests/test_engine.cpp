#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"

namespace osn::sim {
namespace {

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, SimultaneousEventsFireFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) e.schedule_at(5, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine e;
  TimeNs fired_at = 0;
  e.schedule_at(100, [&] { e.schedule_after(50, [&] { fired_at = e.now(); }); });
  e.run();
  EXPECT_EQ(fired_at, 150u);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(10, [&] { fired = true; });
  e.cancel(id);
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.fired_count(), 0u);
}

TEST(Engine, CancelFromEarlierCallback) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(20, [&] { fired = true; });
  e.schedule_at(10, [&] { e.cancel(id); });
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelAlreadyFiredIsNoop) {
  Engine e;
  const EventId id = e.schedule_at(10, [] {});
  e.run();
  e.cancel(id);  // must not crash
  EXPECT_EQ(e.pending_count(), 0u);
}

TEST(Engine, PendingReflectsQueue) {
  Engine e;
  const EventId id = e.schedule_at(10, [] {});
  EXPECT_TRUE(e.pending(id));
  e.run();
  EXPECT_FALSE(e.pending(id));
}

// Slots are recycled, so a fired or cancelled event's id may name a slot that
// a newer event now occupies. The stale id must not reach that newer event.
TEST(Engine, StaleIdDoesNotTouchEventReusingItsSlot) {
  Engine e;
  const EventId fired_id = e.schedule_at(10, [] {});
  e.run();
  bool fired = false;
  const EventId reuser = e.schedule_at(20, [&] { fired = true; });
  ASSERT_EQ(reuser & 0xffff'ffffu, fired_id & 0xffff'ffffu) << "slot not reused";
  EXPECT_NE(reuser, fired_id);
  EXPECT_FALSE(e.pending(fired_id));
  e.cancel(fired_id);
  EXPECT_TRUE(e.pending(reuser));
  EXPECT_EQ(e.pending_count(), 1u);

  const EventId cancelled_id = e.schedule_at(30, [] {});
  e.cancel(cancelled_id);
  bool second_fired = false;
  const EventId second = e.schedule_at(30, [&] { second_fired = true; });
  ASSERT_EQ(second & 0xffff'ffffu, cancelled_id & 0xffff'ffffu) << "slot not reused";
  EXPECT_NE(second, cancelled_id);
  EXPECT_FALSE(e.pending(cancelled_id));
  e.cancel(cancelled_id);
  EXPECT_TRUE(e.pending(second));
  EXPECT_EQ(e.pending_count(), 2u);

  e.run();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(second_fired);
  EXPECT_EQ(e.fired_count(), 3u);
  EXPECT_FALSE(e.pending(kInvalidEvent));
}

// A callback's own id is stale while it runs: its slot is free again and a
// reschedule from inside the callback may take it.
TEST(Engine, CallbackReschedulingIntoItsOwnSlot) {
  Engine e;
  EventId first = kInvalidEvent;
  EventId next = kInvalidEvent;
  bool next_fired = false;
  first = e.schedule_at(10, [&] {
    EXPECT_FALSE(e.pending(first));
    next = e.schedule_after(5, [&] { next_fired = true; });
    e.cancel(first);
  });
  e.run();
  EXPECT_EQ(next & 0xffff'ffffu, first & 0xffff'ffffu);
  EXPECT_NE(next, first);
  EXPECT_TRUE(next_fired);
  EXPECT_EQ(e.now(), 15u);
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine e;
  std::vector<TimeNs> fired;
  e.schedule_at(10, [&] { fired.push_back(10); });
  e.schedule_at(20, [&] { fired.push_back(20); });
  e.schedule_at(30, [&] { fired.push_back(30); });
  e.run_until(20);
  EXPECT_EQ(fired, (std::vector<TimeNs>{10, 20}));
  EXPECT_EQ(e.now(), 20u);
  e.run_until(100);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_EQ(e.now(), 100u);
}

TEST(Engine, StopBreaksRun) {
  Engine e;
  int count = 0;
  for (int i = 1; i <= 10; ++i)
    e.schedule_at(static_cast<TimeNs>(i), [&] {
      if (++count == 3) e.stop();
    });
  e.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(e.pending_count(), 7u);
}

TEST(Engine, SchedulingIntoThePastDies) {
  Engine e;
  e.schedule_at(100, [&] { EXPECT_DEATH(e.schedule_at(50, [] {}), "past"); });
  e.run();
}

TEST(Engine, SelfReschedulingChain) {
  Engine e;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 100) e.schedule_after(10, hop);
  };
  e.schedule_at(0, hop);
  e.run();
  EXPECT_EQ(hops, 100);
  EXPECT_EQ(e.now(), 990u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      e.schedule_at(static_cast<TimeNs>((i * 37) % 20), [&order, i] { order.push_back(i); });
    }
    e.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, FiredCountCounts) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.schedule_at(static_cast<TimeNs>(i), [] {});
  e.run();
  EXPECT_EQ(e.fired_count(), 5u);
}

// Regression for the lazy-cancellation heap leak: a rearm-heavy workload
// (cancel a far-future timer, schedule a new one, forever — exactly what a
// watchdog or a repeatedly-reset timeout does) used to grow the heap by one
// stale entry per cycle, O(cycles) memory. With amortized compaction the heap
// must stay within a small constant factor of the live-event count.
TEST(Engine, RearmedTimerCancellationDoesNotLeakHeap) {
  Engine e;
  constexpr std::uint64_t kCycles = 1'000'000;
  EventId timer = e.schedule_at(kCycles + 1000, [] {});
  for (std::uint64_t i = 1; i <= kCycles; ++i) {
    e.cancel(timer);
    timer = e.schedule_at(kCycles + 1000 + i, [] {});
  }
  EXPECT_EQ(e.pending_count(), 1u);
  // One live event; compaction keeps the heap's stale residue bounded
  // (compact triggers at 2x live, and the minimum-heap floor is 64).
  EXPECT_LE(e.queued_count(), 128u);
  // The surviving timer still fires correctly after all that churn.
  bool fired = false;
  e.cancel(timer);
  e.schedule_at(kCycles + 2000, [&] { fired = true; });
  e.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(e.pending_count(), 0u);
}

TEST(Engine, CompactionPreservesOrderAndFifoTies) {
  Engine e;
  std::vector<int> order;
  std::vector<EventId> doomed;
  // Interleave survivors with victims, then cancel enough to force a
  // compaction mid-stream; survivors must still fire in (time, seq) order.
  for (int i = 0; i < 200; ++i) {
    e.schedule_at(static_cast<TimeNs>(100 + i % 3), [&order, i] { order.push_back(i); });
    doomed.push_back(e.schedule_at(500, [] {}));
    doomed.push_back(e.schedule_at(600, [] {}));
  }
  for (const EventId id : doomed) e.cancel(id);
  EXPECT_EQ(e.pending_count(), 200u);
  e.run();
  ASSERT_EQ(order.size(), 200u);
  // Same (time, insertion) order a compaction-free engine would produce.
  std::vector<int> expected;
  for (int t = 0; t < 3; ++t)
    for (int i = 0; i < 200; ++i)
      if (i % 3 == t) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace osn::sim
