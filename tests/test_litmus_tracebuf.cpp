// Litmus suites: the tracebuf hot path under the model checker.
//
// Each litmus instantiates the *production* templates (BasicRingBuffer /
// BasicChannelSet / BasicConsumer) with the checker's instrumented atomics
// policy and explores every bounded-preemption interleaving. Passing suites
// assert exhaustiveness; failing suites assert that the failure carries a
// schedule seed that replays to the identical failure.
//
// The mutation check re-introduces the PR 1 overwrite-reclaim bug by
// instantiating with CheckedPolicyNoContracts (the guard assert compiled
// out): the checker must then catch the resulting slot race directly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/atomic.hpp"
#include "check/checker.hpp"
#include "tracebuf/channel_set.hpp"
#include "tracebuf/consumer.hpp"
#include "tracebuf/ring_buffer.hpp"

namespace {

using osn::check::CheckedPolicy;
using osn::check::CheckedPolicyNoContracts;
using osn::check::CheckFailure;
using osn::check::explore;
using osn::check::Options;
using osn::check::Result;
using osn::tracebuf::BasicChannelSet;
using osn::tracebuf::BasicConsumer;
using osn::tracebuf::BasicRingBuffer;
using osn::tracebuf::EventRecord;
using osn::tracebuf::FullPolicy;

using CheckedRing = BasicRingBuffer<CheckedPolicy>;
using CheckedChannels = BasicChannelSet<CheckedPolicy>;
using CheckedConsumer = BasicConsumer<CheckedPolicy>;

EventRecord rec(std::uint64_t ts, std::uint16_t cpu, std::uint64_t arg) {
  EventRecord r;
  r.timestamp = ts;
  r.cpu = cpu;
  r.arg = arg;
  return r;
}

// SPSC reserve/commit: a producer pushing into a discard-mode ring and a
// consumer popping concurrently never lose or duplicate a record — every
// pushed record is either popped (in order) or counted in lost().
TEST(LitmusTracebuf, SpscNoLossNoDuplication) {
  Options opt;
  opt.max_preemptions = 2;
  const Result res = explore(opt, [] {
    CheckedRing ring(2, FullPolicy::kDiscard);
    std::vector<std::uint64_t> got;
    osn::check::spawn([&] {
      for (std::uint64_t i = 1; i <= 3; ++i) (void)ring.try_push(rec(i, 0, i));
    });
    osn::check::spawn([&] {
      for (int polls = 0; polls < 3; ++polls)
        if (auto r = ring.try_pop()) got.push_back(r->arg);
    });
    osn::check::join_all();
    while (auto r = ring.try_pop()) got.push_back(r->arg);

    // Discard drops the *newest* record, so what arrives is exactly the
    // prefix 1..n, in order, and the drops are accounted.
    OSN_CHECK(got.size() + ring.lost() == 3);
    for (std::size_t i = 0; i < got.size(); ++i) OSN_CHECK(got[i] == i + 1);
    OSN_CHECK(ring.overwritten() == 0);
  });
  EXPECT_TRUE(res.exhausted);
  EXPECT_GT(res.runs, 1u);
}

// size() is clamped to capacity: during an overwrite reclaim the producer
// bumps tail_ and head_ separately, so an unclamped racing reader could
// transiently observe capacity + 1 (the PR 1 size bug).
TEST(LitmusTracebuf, SizeClampedDuringOverwriteReclaim) {
  Options opt;
  opt.max_preemptions = 2;
  const Result res = explore(opt, [] {
    CheckedRing ring(2, FullPolicy::kOverwrite);
    (void)ring.try_push(rec(1, 0, 1));
    (void)ring.try_push(rec(2, 0, 2));
    osn::check::spawn([&] {
      (void)ring.try_push(rec(3, 0, 3));  // full: reclaims the oldest slot
    });
    osn::check::spawn([&] {
      for (int i = 0; i < 3; ++i) OSN_CHECK(ring.size() <= ring.capacity());
    });
    osn::check::join_all();
    OSN_CHECK(ring.overwritten() == 1);
    OSN_CHECK(ring.size() == 2);
  });
  EXPECT_TRUE(res.exhausted);
}

// With contracts compiled in, pushing into a full overwrite ring while a
// consumer is attached trips the reclaim guard — as a replayable failure.
TEST(LitmusTracebuf, OverwriteReclaimGuardFiresUnderConsumer) {
  auto body = [] {
    CheckedRing ring(2, FullPolicy::kOverwrite);
    ring.attach_consumer();
    (void)ring.try_push(rec(1, 0, 1));
    (void)ring.try_push(rec(2, 0, 2));
    osn::check::spawn([&] { (void)ring.try_push(rec(3, 0, 3)); });
    osn::check::spawn([&] { (void)ring.try_pop(); });
    osn::check::join_all();
  };
  std::string schedule;
  std::string message;
  try {
    explore(Options{}, body);
    FAIL() << "reclaim guard did not fire";
  } catch (const CheckFailure& f) {
    schedule = f.schedule();
    message = f.what();
  }
  EXPECT_NE(message.find("contract violated"), std::string::npos);
  EXPECT_NE(message.find("overwrite reclaim with a consumer attached"), std::string::npos);

  Options replay;
  replay.replay = schedule;
  try {
    explore(replay, body);
    FAIL() << "replay did not reproduce the guard failure";
  } catch (const CheckFailure& f) {
    EXPECT_EQ(std::string(f.what()), message);
    EXPECT_EQ(f.schedule(), schedule);
  }
}

// Mutation check: compile the guard OUT (CheckedPolicyNoContracts) — the
// exact bug PR 1 fixed. The checker must still catch the underlying
// corruption: the reclaiming producer overwrites the slot the concurrent
// consumer reads without any happens-before edge (torn-write visibility at
// the consumer), and the failing schedule must replay deterministically.
TEST(LitmusTracebuf, MutationUnguardedReclaimRaceIsCaught) {
  using MutRing = BasicRingBuffer<CheckedPolicyNoContracts>;
  auto body = [] {
    MutRing ring(2, FullPolicy::kOverwrite);
    ring.attach_consumer();
    (void)ring.try_push(rec(1, 0, 1));
    (void)ring.try_push(rec(2, 0, 2));
    osn::check::spawn([&] { (void)ring.try_push(rec(3, 0, 3)); });
    osn::check::spawn([&] { (void)ring.try_pop(); });
    osn::check::join_all();
  };
  std::string schedule;
  std::string message;
  try {
    explore(Options{}, body);
    FAIL() << "checker missed the unguarded overwrite-reclaim race";
  } catch (const CheckFailure& f) {
    schedule = f.schedule();
    message = f.what();
  }
  EXPECT_NE(message.find("data race"), std::string::npos) << message;
  EXPECT_NE(schedule, "-");

  Options replay;
  replay.replay = schedule;
  try {
    explore(replay, body);
    FAIL() << "replay did not reproduce the race";
  } catch (const CheckFailure& f) {
    EXPECT_EQ(std::string(f.what()), message);
    EXPECT_EQ(f.schedule(), schedule);
  }
}

// ChannelSet::emit racing overwrite-reclaim across three producers: each CPU
// owns its channel (SPSC per channel), so concurrent emits with reclaim are
// safe without a consumer — exhaustively, under every interleaving — and the
// post-hoc merge is (timestamp, cpu)-monotonic with exact loss accounting.
TEST(LitmusTracebuf, ThreeProducerEmitWithOverwriteReclaim) {
  Options opt;
  opt.max_preemptions = 1;  // three producers: keep the space tractable
  const Result res = explore(opt, [] {
    CheckedChannels channels(3, 2, FullPolicy::kOverwrite);
    for (std::uint16_t p = 0; p < 3; ++p) {
      osn::check::spawn([&channels, p] {
        for (std::uint64_t i = 1; i <= 3; ++i)
          (void)channels.emit(p, rec(i, p, i));
      });
    }
    osn::check::join_all();
    const auto merged = channels.drain_merged();
    // 9 pushed, 1 reclaimed per capacity-2 channel.
    OSN_CHECK(merged.size() == 6);
    OSN_CHECK(channels.total_lost() == 0);
    for (std::uint16_t p = 0; p < 3; ++p)
      OSN_CHECK(channels.channel(p).overwritten() == 1);
    for (std::size_t i = 1; i < merged.size(); ++i) {
      const bool ordered =
          merged[i - 1].timestamp < merged[i].timestamp ||
          (merged[i - 1].timestamp == merged[i].timestamp &&
           merged[i - 1].cpu < merged[i].cpu);
      OSN_CHECK(ordered);
    }
  });
  EXPECT_TRUE(res.exhausted);
  EXPECT_GT(res.runs, 1u);
}

// Watermark-gated live merge: the consumer (driven step by step through
// run_once on a checker thread) only emits a record once no channel can
// still produce an earlier one, so the emitted stream is (timestamp, cpu)
// monotonic under every interleaving with the two producers — including
// mid-stream, not just after the final flush.
TEST(LitmusTracebuf, ConsumerWatermarkMergeIsMonotonic) {
  Options opt;
  opt.max_preemptions = 1;  // three threads: keep the space tractable
  const Result res = explore(opt, [] {
    CheckedChannels channels(2, 4, FullPolicy::kDiscard);
    std::vector<EventRecord> emitted;
    CheckedConsumer consumer(
        channels,
        [&emitted](const EventRecord& r) {
          if (!emitted.empty()) {
            const EventRecord& prev = emitted.back();
            OSN_CHECK_MSG(prev.timestamp < r.timestamp ||
                              (prev.timestamp == r.timestamp && prev.cpu < r.cpu),
                          "live merge emitted out of (timestamp, cpu) order");
          }
          emitted.push_back(r);
        },
        /*batch_size=*/2);
    osn::check::spawn([&channels] {
      (void)channels.emit(0, rec(10, 0, 1));
      (void)channels.emit(0, rec(20, 0, 2));
    });
    osn::check::spawn([&channels] {
      (void)channels.emit(1, rec(15, 1, 3));
      (void)channels.emit(1, rec(25, 1, 4));
    });
    osn::check::spawn([&consumer] {
      for (int i = 0; i < 2; ++i) (void)consumer.run_once();
    });
    osn::check::join_all();
    consumer.stop();  // producers quiescent: final flush drains everything
    OSN_CHECK(emitted.size() == 4);
    OSN_CHECK(consumer.stats().records == 4);
    OSN_CHECK(channels.total_lost() == 0);
  });
  EXPECT_TRUE(res.exhausted);
  EXPECT_GT(res.runs, 1u);
}

}  // namespace
