// Deterministic discrete-event simulation engine.
//
// The simulated kernel (src/kernel) is written as a set of callbacks
// scheduled on this engine: interrupt arrivals, execution-frame completions,
// DMA completions, timer expiries. Determinism guarantees:
//  * events fire in (time, insertion-sequence) order, so simultaneous events
//    are processed FIFO — independent of container iteration order;
//  * no wall-clock or address-based state enters the schedule.
// Cancellation is O(1) lazy: cancelled ids stay in the heap and are skipped
// when popped, the standard technique for DES engines with frequent
// reschedules (every preempted execution frame cancels its completion).
// Rearm-heavy workloads (cancel + reschedule far-future timers forever)
// would grow the heap without bound under pure laziness, so cancel()
// amortizes a compaction pass whenever stale entries outnumber live ones.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace osn::sim {

/// (generation << 32) | slot. Generations start at 1, so no live event is
/// ever kInvalidEvent. A stale id could alias only after its slot's 32-bit
/// generation wraps, i.e. after 2^32 reuses of that one slot.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Engine {
 public:
  /// Schedules `fn` at absolute time `t` (must be >= now()).
  EventId schedule_at(TimeNs t, std::function<void()> fn);

  /// Schedules `fn` `d` nanoseconds from now.
  EventId schedule_after(DurNs d, std::function<void()> fn) {
    return schedule_at(now_ + d, std::move(fn));
  }

  /// Cancels a pending event; cancelling an already-fired or already-
  /// cancelled id is a harmless no-op (callers race with completions).
  /// Lazily-cancelled heap entries are compacted away once they exceed half
  /// the heap, bounding memory under rearm-heavy timer workloads.
  void cancel(EventId id);

  /// True if `id` is still pending.
  bool pending(EventId id) const {
    const auto slot = static_cast<std::uint32_t>(id);
    return slot < slots_.size() && slots_[slot].generation == id >> 32;
  }

  /// Runs events until the queue is empty or `stop()` is called.
  void run();

  /// Runs events with time <= t_end, then advances the clock to t_end.
  void run_until(TimeNs t_end);

  /// Stops run()/run_until() after the current callback returns.
  void stop() { stopped_ = true; }

  TimeNs now() const { return now_; }
  std::size_t pending_count() const { return slots_.size() - free_slots_.size(); }
  /// Heap entries including lazily-cancelled residue; stays within a small
  /// constant factor of pending_count() thanks to compaction.
  std::size_t queued_count() const { return heap_.size(); }
  std::uint64_t fired_count() const { return fired_; }

 private:
  struct HeapItem {
    TimeNs time;
    std::uint64_t seq;
    EventId id;
  };
  struct Later {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  struct Slot {
    std::function<void()> fn;
    /// Generation of the event occupying the slot; bumped when it is freed.
    std::uint64_t generation = 1;
  };

  /// Pops and dispatches one event; false when none is due by t_limit.
  bool step(TimeNs t_limit);
  /// Releases a live event's slot and returns its callback.
  std::function<void()> release(EventId id);
  /// Drops lazily-cancelled entries and restores the heap property.
  void compact_heap();

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  bool stopped_ = false;
  // A plain vector managed with std::push_heap/pop_heap (rather than
  // std::priority_queue) so compact_heap can filter it in place.
  std::vector<HeapItem> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace osn::sim
