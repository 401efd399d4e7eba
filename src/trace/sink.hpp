// Trace sinks: where tracepoints deliver their records.
//
// The instrumented kernel emits through a TraceSink pointer, so the same
// kernel build can trace into per-CPU ring buffers drained live
// (BlockingChannelSink, the production path), into a plain vector (offline
// runs and tests), into nothing (the tracing-disabled baseline used to
// measure tracer overhead, §III-A), or through an event filter (the paper's
// "simply applying different filters" capability, §III-A footnote 2).
#pragma once

#include <array>
#include <cstdint>
#include <thread>
#include <vector>

#include "trace/schema.hpp"
#include "tracebuf/channel_set.hpp"
#include "tracebuf/record.hpp"

namespace osn::trace {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const tracebuf::EventRecord& rec) = 0;
};

/// Collects records in memory; the default for the simulator and tests.
class VectorSink final : public TraceSink {
 public:
  void write(const tracebuf::EventRecord& rec) override { records_.push_back(rec); }
  const std::vector<tracebuf::EventRecord>& records() const { return records_; }
  std::vector<tracebuf::EventRecord> take() { return std::move(records_); }

 private:
  std::vector<tracebuf::EventRecord> records_;
};

/// Routes each record into its CPU's lock-free channel (the LTTng path) with
/// backpressure: when the target channel is full, the producer spin/yields
/// until the concurrent consumer daemon has drained it back to half its
/// capacity, then pushes — zero-loss by construction.
///
/// The watermark hysteresis matters: resuming the instant one slot frees
/// would ping-pong the producer against the consumer at the full boundary;
/// waiting for the fill level to fall to half lets the next burst proceed
/// without stalling again. Requires a live consumer (deadlocks otherwise) and
/// a single producer per channel, like the buffers themselves.
class BlockingChannelSink final : public TraceSink {
 public:
  explicit BlockingChannelSink(tracebuf::ChannelSet& channels) : channels_(channels) {}

  void write(const tracebuf::EventRecord& rec) override {
    const auto cpu = static_cast<CpuId>(rec.cpu);
    tracebuf::RingBuffer& ch = channels_.channel(cpu);
    if (ch.size() >= ch.capacity()) {
      ++stalls_;
      while (ch.size() > ch.capacity() / 2) std::this_thread::yield();
    }
    channels_.emit(cpu, rec);
  }

  /// Number of writes that had to wait for the consumer.
  std::uint64_t stalls() const { return stalls_; }

 private:
  tracebuf::ChannelSet& channels_;
  std::uint64_t stalls_ = 0;
};

/// Discards everything; the "tracing compiled out" baseline.
class NullSink final : public TraceSink {
 public:
  void write(const tracebuf::EventRecord&) override {}
};

/// Per-event-type filter in front of another sink.
class FilteredSink final : public TraceSink {
 public:
  explicit FilteredSink(TraceSink& next) : next_(next) { enabled_.fill(true); }

  void set_enabled(EventType t, bool on) {
    enabled_[static_cast<std::size_t>(t)] = on;
  }
  bool enabled(EventType t) const { return enabled_[static_cast<std::size_t>(t)]; }

  void write(const tracebuf::EventRecord& rec) override {
    if (enabled_[rec.event]) next_.write(rec);
  }

 private:
  TraceSink& next_;
  std::array<bool, static_cast<std::size_t>(EventType::kMaxEvent)> enabled_{};
};

}  // namespace osn::trace
