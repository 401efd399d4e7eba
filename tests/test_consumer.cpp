// The consumer daemon: inline drains, live concurrent drains against real
// producer threads, merged-order determinism against the offline k-way merge,
// and the observability counters. The concurrent tests are the designated
// TSan targets (see OSN_SANITIZE in the top-level CMakeLists): they exercise
// the RingBuffer release/acquire protocol and the Consumer's staging state
// under genuine parallelism.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "trace/sink.hpp"
#include "tracebuf/channel_set.hpp"
#include "tracebuf/consumer.hpp"

namespace osn::tracebuf {
namespace {

EventRecord rec(TimeNs ts, std::uint16_t cpu, std::uint64_t arg = 0) {
  EventRecord r;
  r.timestamp = ts;
  r.cpu = cpu;
  r.arg = arg;
  return r;
}

bool merged_order_le(const EventRecord& a, const EventRecord& b) {
  if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
  return a.cpu <= b.cpu;
}

TEST(Consumer, InlineDrainWithoutStart) {
  ChannelSet cs(2, 16);
  cs.emit(0, rec(10, 0));
  cs.emit(1, rec(5, 1));
  cs.emit(0, rec(20, 0));
  std::vector<EventRecord> got;
  Consumer consumer(cs, [&](const EventRecord& r) { got.push_back(r); });
  consumer.stop();  // no start(): stop() doubles as an inline drain
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].timestamp, 5u);
  EXPECT_EQ(got[1].timestamp, 10u);
  EXPECT_EQ(got[2].timestamp, 20u);
  EXPECT_EQ(consumer.stats().records, 3u);
  EXPECT_EQ(cs.total_lost(), 0u);
}

TEST(Consumer, StopIsIdempotentAndDrainsResidue) {
  ChannelSet cs(1, 16);
  std::vector<EventRecord> got;
  Consumer consumer(cs, [&](const EventRecord& r) { got.push_back(r); });
  cs.emit(0, rec(1, 0));
  consumer.stop();
  EXPECT_EQ(got.size(), 1u);
  // Records emitted after a stop are picked up by the next stop — the
  // pattern the tracer-overhead bench uses for periodic inline drains.
  cs.emit(0, rec(2, 0));
  consumer.stop();
  EXPECT_EQ(got.size(), 2u);
  consumer.stop();
  EXPECT_EQ(got.size(), 2u);
}

TEST(Consumer, MatchesOfflineMergeExactly) {
  // Same interleaved input into two channel sets; the live consumer's merged
  // stream must equal drain_merged() record for record, ties included.
  const std::size_t k = 4;
  ChannelSet live(k, 1u << 8), offline(k, 1u << 8);
  std::uint64_t n = 0;
  for (TimeNs t = 0; t < 50; ++t) {
    for (std::uint16_t cpu = 0; cpu < k; ++cpu) {
      if ((t + cpu) % 3 == 0) continue;  // ragged streams
      // Duplicate timestamps across channels to stress the tie-break.
      const EventRecord r = rec(t / 2, cpu, n++);
      live.emit(cpu, r);
      offline.emit(cpu, r);
    }
  }
  std::vector<EventRecord> got;
  Consumer consumer(live, [&](const EventRecord& r) { got.push_back(r); });
  consumer.stop();
  const std::vector<EventRecord> want = offline.drain_merged();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

TEST(Consumer, SecondConsumerOnSameChannelsDies) {
  ChannelSet cs(2, 16);
  Consumer first(cs, [](const EventRecord&) {});
  EXPECT_DEATH(Consumer(cs, [](const EventRecord&) {}),
               "already has a consumer");
}

TEST(Consumer, BatchStatsRespectBatchSize) {
  ChannelSet cs(1, 1u << 8);
  for (TimeNs t = 0; t < 100; ++t) cs.emit(0, rec(t, 0));
  std::uint64_t seen = 0;
  Consumer consumer(cs, [&](const EventRecord&) { ++seen; }, /*batch_size=*/16);
  consumer.stop();
  EXPECT_EQ(seen, 100u);
  const ConsumerStats& s = consumer.stats();
  EXPECT_EQ(s.records, 100u);
  EXPECT_LE(s.max_batch, 16u);
  EXPECT_GE(s.batches, 100u / 16);
}

// TSan target: real producer threads (one per channel, the SPSC contract)
// racing the consumer daemon. With no loss, every record must be delivered
// exactly once, per-channel streams in order, globally merged.
TEST(Consumer, ConcurrentProducersNoRecordLostOrDuplicated) {
  const std::size_t k = 4;
  constexpr std::uint64_t kPerCpu = 100'000;
  // Large enough that nothing is discarded: zero-loss is a precondition of
  // the exactly-once claim (losses are *accounted*, not silent).
  ChannelSet cs(k, 1u << 18);

  std::vector<EventRecord> got;
  got.reserve(k * kPerCpu);
  Consumer consumer(cs, [&](const EventRecord& r) { got.push_back(r); });
  consumer.start();
  EXPECT_TRUE(consumer.running());

  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  for (std::uint16_t cpu = 0; cpu < k; ++cpu) {
    producers.emplace_back([&, cpu] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kPerCpu; ++i) {
        // Monotonic per-channel timestamps with heavy cross-channel ties.
        while (!cs.emit(cpu, rec(i / 7, cpu, i))) {
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : producers) t.join();
  consumer.stop();
  EXPECT_FALSE(consumer.running());

  ASSERT_EQ(cs.total_lost(), 0u);
  ASSERT_EQ(got.size(), k * kPerCpu);
  // Global merged order, per-channel exactly-once in sequence.
  std::vector<std::uint64_t> next(k, 0);
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (i > 0) {
      ASSERT_TRUE(merged_order_le(got[i - 1], got[i]));
    }
    ASSERT_LT(got[i].cpu, k);
    ASSERT_EQ(got[i].arg, next[got[i].cpu]++);
  }
  for (std::uint16_t cpu = 0; cpu < k; ++cpu) EXPECT_EQ(next[cpu], kPerCpu);
}

// TSan target: a producer that trickles, as the simulator does, about one
// record every 2 us for ~20 ms over two channels. The daemon sleeps between
// polls that find every channel caught up, so each pop takes a batch that
// accumulated meanwhile: a loop that re-polls after every non-empty pop would
// take one record at a time here.
TEST(Consumer, TrickleIsDrainedInBatches) {
  constexpr std::uint64_t kRecords = 10'000;
  constexpr auto kPeriod = std::chrono::microseconds(2);
  ChannelSet cs(2, 1u << 14);  // holds the whole run: nothing can be lost
  std::vector<EventRecord> got;
  got.reserve(kRecords);
  Consumer consumer(cs, [&](const EventRecord& r) { got.push_back(r); });
  consumer.start();

  std::thread producer([&] {
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      while (std::chrono::steady_clock::now() < start + i * kPeriod) {
      }
      const auto cpu = static_cast<std::uint16_t>(i % 2);
      ASSERT_TRUE(cs.emit(cpu, rec(static_cast<TimeNs>(i), cpu, i)));
    }
  });
  producer.join();
  consumer.stop();

  const ConsumerStats& s = consumer.stats();
  EXPECT_EQ(cs.total_lost(), 0u);
  ASSERT_EQ(got.size(), kRecords);
  for (std::uint64_t i = 0; i < kRecords; ++i) ASSERT_EQ(got[i].arg, i);
  ASSERT_GT(s.batches, 0u);
  EXPECT_GE(s.records, 4 * s.batches) << "mean batch " << s.records / s.batches;
}

// TSan target: the backpressure path. Tiny buffers + a blocking sink must
// deliver every record with zero loss, stalling producers instead.
TEST(Consumer, BackpressureBlocksInsteadOfDropping) {
  const std::size_t k = 2;
  constexpr std::uint64_t kPerCpu = 50'000;
  ChannelSet cs(k, 1u << 6);  // 64 slots: guaranteed watermark pressure
  std::vector<EventRecord> got;
  Consumer consumer(cs, [&](const EventRecord& r) { got.push_back(r); });
  consumer.start();

  std::vector<trace::BlockingChannelSink> sinks;
  sinks.reserve(k);
  for (std::size_t i = 0; i < k; ++i) sinks.emplace_back(cs);

  std::vector<std::thread> producers;
  for (std::uint16_t cpu = 0; cpu < k; ++cpu) {
    producers.emplace_back([&, cpu] {
      for (std::uint64_t i = 0; i < kPerCpu; ++i)
        sinks[cpu].write(rec(i, cpu, i));
    });
  }
  for (auto& t : producers) t.join();
  consumer.stop();

  EXPECT_EQ(cs.total_lost(), 0u);
  ASSERT_EQ(got.size(), k * kPerCpu);
  std::vector<std::uint64_t> next(k, 0);
  for (const EventRecord& r : got) ASSERT_EQ(r.arg, next[r.cpu]++);
}

}  // namespace
}  // namespace osn::tracebuf
