// A userspace tracer over the per-CPU lock-free channels, running on real
// threads — demonstrating that the tracebuf substrate genuinely sustains the
// concurrent produce/consume pattern LTTng relies on (one producer per CPU,
// one consumer daemon), and providing the measured per-event overhead for
// the §III-A overhead claim (~0.28%).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "host/host_clock.hpp"
#include "trace/schema.hpp"
#include "tracebuf/channel_set.hpp"
#include "tracebuf/consumer.hpp"

namespace osn::host {

class ThreadTracer {
 public:
  /// `lanes` plays the role of CPUs: each producer thread owns one lane.
  explicit ThreadTracer(std::size_t lanes, std::size_t capacity_pow2 = 1u << 16);
  ~ThreadTracer();

  ThreadTracer(const ThreadTracer&) = delete;
  ThreadTracer& operator=(const ThreadTracer&) = delete;

  /// Hot path, wait-free: record an event on `lane` with a host timestamp.
  void record(CpuId lane, trace::EventType type, std::uint64_t arg, Pid pid = 0) {
    channels_.emit(lane,
                   trace::make_record(now_ns() - origin_, lane, pid, type, arg));
  }

  /// Starts the consumer daemon draining all lanes into the collected list.
  void start_consumer();
  /// Stops the consumer and drains any residue (usable repeatedly; without a
  /// prior start_consumer() it performs an inline drain).
  void stop_consumer();

  /// Records in global (timestamp, lane) merged order.
  const std::vector<tracebuf::EventRecord>& collected() const { return collected_; }
  std::uint64_t lost() const { return channels_.total_lost(); }
  TimeNs origin() const { return origin_; }

 private:
  TimeNs origin_;
  tracebuf::ChannelSet channels_;
  std::vector<tracebuf::EventRecord> collected_;
  std::unique_ptr<tracebuf::Consumer> consumer_;
};

}  // namespace osn::host
