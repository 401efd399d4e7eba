// Trace sinks: collecting, discarding, filtering — the knobs behind "simply
// applying different filters" (§III-A).
#include <gtest/gtest.h>

#include "trace/sink.hpp"

namespace osn::trace {
namespace {

tracebuf::EventRecord rec(EventType type, TimeNs ts = 1) {
  return make_record(ts, 0, 1, type, 0);
}

TEST(Sinks, VectorSinkStoresInOrder) {
  VectorSink sink;
  sink.write(rec(EventType::kIrqEntry, 10));
  sink.write(rec(EventType::kIrqExit, 20));
  ASSERT_EQ(sink.records().size(), 2u);
  EXPECT_EQ(sink.records()[0].timestamp, 10u);
  EXPECT_EQ(sink.records()[1].timestamp, 20u);
}

TEST(Sinks, VectorSinkTakeMovesOut) {
  VectorSink sink;
  sink.write(rec(EventType::kSchedWakeup));
  auto taken = sink.take();
  EXPECT_EQ(taken.size(), 1u);
  EXPECT_TRUE(sink.records().empty());
}

TEST(Sinks, NullSinkDiscards) {
  NullSink sink;
  for (int i = 0; i < 100; ++i) sink.write(rec(EventType::kSchedWakeup));
  // Nothing observable — the point is it never crashes and costs nothing.
  SUCCEED();
}

TEST(Sinks, FilteredSinkPassesEverythingByDefault) {
  VectorSink inner;
  FilteredSink filtered(inner);
  filtered.write(rec(EventType::kIrqEntry));
  filtered.write(rec(EventType::kSchedSwitch));
  EXPECT_EQ(inner.records().size(), 2u);
}

TEST(Sinks, FilteredSinkDropsDisabledTypes) {
  VectorSink inner;
  FilteredSink filtered(inner);
  filtered.set_enabled(EventType::kSchedSwitch, false);
  EXPECT_FALSE(filtered.enabled(EventType::kSchedSwitch));
  EXPECT_TRUE(filtered.enabled(EventType::kIrqEntry));
  filtered.write(rec(EventType::kIrqEntry));
  filtered.write(rec(EventType::kSchedSwitch));
  filtered.write(rec(EventType::kIrqExit));
  ASSERT_EQ(inner.records().size(), 2u);
  EXPECT_EQ(static_cast<EventType>(inner.records()[0].event), EventType::kIrqEntry);
  EXPECT_EQ(static_cast<EventType>(inner.records()[1].event), EventType::kIrqExit);
}

TEST(Sinks, FilteredSinkReEnable) {
  VectorSink inner;
  FilteredSink filtered(inner);
  filtered.set_enabled(EventType::kAppMark, false);
  filtered.write(rec(EventType::kAppMark));
  filtered.set_enabled(EventType::kAppMark, true);
  filtered.write(rec(EventType::kAppMark));
  EXPECT_EQ(inner.records().size(), 1u);
}

}  // namespace
}  // namespace osn::trace
