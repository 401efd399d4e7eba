// The consumer daemon: concurrent, batched draining of a ChannelSet.
//
// This is the missing half of the LTTng reproduction. LTTng's low overhead
// comes from per-CPU lock-free channels *drained by a concurrent consumer
// daemon* (lttng-consumerd); until now this repo only drained buffers offline
// after a run, so whole traces had to fit in memory and the SPSC fast path
// never ran against a live producer. The Consumer closes that gap:
//
//  * one daemon thread drains every per-CPU RingBuffer in batches
//    (RingBuffer::try_pop_batch — one head acquire + one tail release per
//    batch instead of per record);
//  * popped records are merged incrementally into global (timestamp, cpu)
//    order and handed to an emit callback — the same order drain_merged()
//    produces offline, so downstream consumers (streaming OSNT writer,
//    incremental analysis) see a totally ordered stream with bounded staging;
//  * the consumer counts what it drains (records, batches, largest batch);
//    loss and overwrite are counted by the ring buffers themselves
//    (ChannelSet::total_lost / total_overwritten).
//
// Live-merge correctness: a staged record r from channel c may only be
// emitted once no channel can still produce an earlier record. Each channel's
// stream is monotonic, so after popping a record with timestamp t from
// channel d, every future record of d has timestamp >= t. The daemon
// therefore emits r iff for every channel d with an empty staging queue,
// (r.ts, c) < (floor_d, d) where floor_d is the newest timestamp ever popped
// from d. Channels that have produced nothing yet hold the merge back (their
// floor is unknown); everything is flushed unconditionally at stop(), when
// producers are quiescent. Ties are broken by cpu id, matching the offline
// k-way merge exactly — the live path is byte-for-byte deterministic.
//
// Templated on the atomics policy (atomics_policy.hpp): the model checker
// drives BasicConsumer<CheckedPolicy> step by step via run_once() on a
// checker-controlled thread (no daemon thread), exploring every interleaving
// of the watermark-gated merge against live producers. Consumer is the
// production instantiation (compiled in consumer.cpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/clock.hpp"
#include "tracebuf/channel_set.hpp"

namespace osn::tracebuf {

/// Records per try_pop_batch call unless the caller picks another size.
inline constexpr std::size_t kDefaultBatchSize = 256;
/// The daemon's sleep between polls that leave every channel caught up (no
/// full pop), so records accumulate into whole batches instead of being
/// chased one by one. It also bounds stop() latency.
inline constexpr DurNs kIdleSleepNs = 50 * kNsPerUs;

/// What the consumer itself counts; loss lives in the ring buffers.
struct ConsumerStats {
  std::uint64_t records = 0;  ///< total records emitted in merged order
  std::uint64_t batches = 0;  ///< non-empty try_pop_batch calls
  std::uint64_t max_batch = 0;  ///< largest single batch
};

template <class Policy>
class BasicConsumer {
 public:
  /// Called on the consumer thread, in global (timestamp, cpu) order.
  using Emit = std::function<void(const EventRecord&)>;

  /// Attaches to every channel of `channels` (asserting it is the only
  /// consumer). `emit` receives the merged stream; each poll pops up to
  /// `batch_size` records per channel.
  BasicConsumer(BasicChannelSet<Policy>& channels, Emit emit,
                std::size_t batch_size = kDefaultBatchSize)
      : channels_(channels), emit_(std::move(emit)) {
    OSN_ASSERT_MSG(emit_ != nullptr, "consumer needs an emit callback");
    OSN_ASSERT_MSG(batch_size >= 1, "batch size must be >= 1");
    // Consumer construction, before the daemon starts.
    const std::size_t k = channels_.cpu_count();
    staging_.resize(k);  // osn-lint: allow(hot-path-alloc) setup
    staging_head_.assign(k, 0);  // osn-lint: allow(hot-path-alloc) setup
    floor_.assign(k, 0);  // osn-lint: allow(hot-path-alloc) setup
    seen_.assign(k, false);  // osn-lint: allow(hot-path-alloc) setup
    scratch_.resize(batch_size);  // osn-lint: allow(hot-path-alloc) setup
    for (std::size_t c = 0; c < k; ++c)
      channels_.channel(static_cast<CpuId>(c)).attach_consumer();
    attached_ = true;
  }

  ~BasicConsumer() {
    stop();
    if (attached_) {
      for (std::size_t c = 0; c < channels_.cpu_count(); ++c)
        channels_.channel(static_cast<CpuId>(c)).detach_consumer();
      attached_ = false;
    }
  }

  BasicConsumer(const BasicConsumer&) = delete;
  BasicConsumer& operator=(const BasicConsumer&) = delete;

  /// Starts the daemon thread. Producers may push concurrently from then on.
  void start() {
    if (running_.exchange(true, std::memory_order_acq_rel)) return;
    thread_ = std::thread([this] { drain_loop(); });
  }

  /// Stops the daemon (joining the thread if running), then drains and emits
  /// all residual records. Producers must be quiescent by the time stop() is
  /// called. Idempotent; also usable without start() for an inline drain.
  void stop() {
    if (running_.exchange(false, std::memory_order_acq_rel)) {
      if (thread_.joinable()) thread_.join();
    }
    // Producers are quiescent by contract now: drain every channel dry, then
    // flush the merge unconditionally (no channel can contribute again).
    while (poll_once() > 0) {
    }
    flush(true);
  }

  /// One daemon iteration on the caller's thread: poll a batch from every
  /// channel, emit whatever the watermark rule allows. Returns the number of
  /// records popped. This is the step function the model checker drives in
  /// place of the daemon thread; also usable for cooperative single-threaded
  /// draining. Never call concurrently with a running daemon.
  std::size_t run_once() {
    const std::size_t popped = poll_once();
    flush(false);
    return popped;
  }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Stable after stop(); while the daemon runs the counters are updated
  /// from the consumer thread without synchronization.
  const ConsumerStats& stats() const { return stats_; }

 private:
  void drain_loop() {
    while (running_.load(std::memory_order_acquire)) {
      bool backlog = false;
      poll_once(&backlog);
      flush(false);
      // A full pop means a backlog or a stalled producer: poll again at once.
      // Otherwise every channel is caught up, and polling again now would pop
      // a record or two while pulling the producers' cache lines; sleep so
      // the next poll takes a whole batch. Only the daemon waits here, never
      // a producer.
      if (backlog) continue;
      const Deadline wake = Deadline::after(kIdleSleepNs);
      wake.sleep_remaining();  // osn-lint: allow(hot-path-syscall) daemon idle
    }
  }

  /// Pops one batch from every channel into staging; returns records popped.
  /// `backlog`, when given, is set if some pop came back full: `batch_size`
  /// records, or the channel's whole capacity when that is smaller.
  std::size_t poll_once(bool* backlog = nullptr) {
    std::size_t total = 0;
    for (std::size_t c = 0; c < staging_.size(); ++c) {
      auto& channel = channels_.channel(static_cast<CpuId>(c));
      const std::size_t n = channel.try_pop_batch(scratch_);
      if (n == 0) continue;
      if (backlog != nullptr && n == std::min(scratch_.size(), channel.capacity()))
        *backlog = true;
      auto& queue = staging_[c];
      std::size_t& head = staging_head_[c];
      // Reclaim the consumed prefix before growing the queue further.
      if (head > 0 && head * 2 >= queue.size()) {
        queue.erase(queue.begin(),
                    queue.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
      // Staging grows on the consumer daemon only; producers never touch it.
      queue.insert(queue.end(), scratch_.begin(),  // osn-lint: allow(hot-path-alloc) drain
                   scratch_.begin() + static_cast<std::ptrdiff_t>(n));
      floor_[c] = queue.back().timestamp;
      seen_[c] = true;

      stats_.batches += 1;
      stats_.max_batch = std::max<std::uint64_t>(stats_.max_batch, n);
      total += n;
    }
    return total;
  }

  /// Emits staged records that are safe under the watermark rule; `final`
  /// additionally treats empty channels as exhausted (end-of-trace flush).
  void flush(bool final) {
    const std::size_t k = staging_.size();
    while (true) {
      // The channel whose staged front is the global (timestamp, cpu) minimum.
      // Scanning in ascending cpu order with a strict < makes the lowest cpu
      // win ties — the same tie-break as the offline k-way merge.
      std::size_t best = k;
      TimeNs best_ts = 0;
      for (std::size_t c = 0; c < k; ++c) {
        if (staging_head_[c] >= staging_[c].size()) continue;
        const TimeNs ts = staging_[c][staging_head_[c]].timestamp;
        if (best == k || ts < best_ts) {
          best = c;
          best_ts = ts;
        }
      }
      if (best == k) return;

      // The earliest (timestamp, cpu) pair any *other* channel could still
      // contribute: its staged front, or — when staging is empty — the floor of
      // its future records. A channel that has produced nothing has an unknown
      // floor and holds the merge back until stop().
      bool bounded = false;
      TimeNs bound_ts = 0;
      std::size_t bound_cpu = 0;
      for (std::size_t d = 0; d < k; ++d) {
        if (d == best) continue;
        TimeNs ts;
        if (staging_head_[d] < staging_[d].size()) {
          ts = staging_[d][staging_head_[d]].timestamp;
        } else if (final) {
          continue;  // exhausted for good
        } else {
          ts = seen_[d] ? floor_[d] : 0;
        }
        if (!bounded || ts < bound_ts || (ts == bound_ts && d < bound_cpu)) {
          bounded = true;
          bound_ts = ts;
          bound_cpu = d;
        }
      }

      // Emit the run of records from `best` that stay strictly below the
      // bound; run emission amortizes the scans above over bursty streams.
      auto& queue = staging_[best];
      std::size_t& head = staging_head_[best];
      bool emitted = false;
      while (head < queue.size()) {
        const EventRecord& rec = queue[head];
        if (bounded && !(rec.timestamp < bound_ts ||
                         (rec.timestamp == bound_ts && best < bound_cpu)))
          break;
        emit_(rec);
        ++head;
        ++stats_.records;
        emitted = true;
      }
      if (head == queue.size()) {
        queue.clear();
        head = 0;
      }
      if (!emitted) return;  // watermark reached: wait for more input
    }
  }

  BasicChannelSet<Policy>& channels_;
  Emit emit_;

  // Staging: per-channel FIFO of popped-but-not-yet-merged records.
  std::vector<std::vector<EventRecord>> staging_;
  std::vector<std::size_t> staging_head_;
  std::vector<TimeNs> floor_;  ///< newest timestamp ever popped per channel
  std::vector<bool> seen_;     ///< channel has produced at least one record
  std::vector<EventRecord> scratch_;

  ConsumerStats stats_;
  std::thread thread_;
  // Daemon control plane, not part of the algorithm under test: always a real
  // std::atomic (the checker drives run_once() directly, never start/stop).
  std::atomic<bool> running_{false};
  bool attached_ = false;
};

using Consumer = BasicConsumer<StdAtomicsPolicy>;

extern template class BasicConsumer<StdAtomicsPolicy>;

}  // namespace osn::tracebuf
