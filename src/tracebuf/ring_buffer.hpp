// Lock-free single-producer/single-consumer ring buffer of trace records.
//
// This is the reproduction of LTTng's core data structure: one buffer per
// CPU, written only by code running on that CPU (single producer) and drained
// by a consumer daemon (single consumer). Lock-freedom and per-CPU ownership
// are what keep the tracer's overhead at the ~0.28% the paper reports — no
// cross-CPU cache-line ping-pong on the hot path, no locks in irq context.
//
// Memory ordering: the producer publishes a record with a release store of
// `head_`; the consumer acquires `head_` before reading slots, and releases
// `tail_` after consuming so the producer can reuse slots. Capacity is a
// power of two so index masking is a single AND. (DESIGN.md spells out the
// full ordering contract; the model checker in src/check/ enforces it.)
//
// Two full-buffer policies mirror LTTng's channel modes:
//  * kDiscard   — drop the *new* record and count it (default; losses are
//                 accounted so the analyzer can report them).
//  * kOverwrite — flight-recorder mode: the producer reclaims the oldest
//                 slot. Overwrite requires that no consumer runs concurrently
//                 (trace first, drain afterwards), which is how the offline
//                 analysis in this repo uses it; this matches LTTng's
//                 "snapshot" usage.
//
// BasicRingBuffer is templated on an atomics policy (atomics_policy.hpp) so
// the identical algorithm also runs under the model checker's instrumented
// atomics; RingBuffer is the production std::atomic instantiation.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "tracebuf/atomics_policy.hpp"
#include "tracebuf/record.hpp"

namespace osn::tracebuf {

enum class FullPolicy { kDiscard, kOverwrite };

template <class Policy>
class BasicRingBuffer {
 public:
  // 64 bytes covers x86-64 and most aarch64; a fixed value avoids the ABI
  // instability gcc warns about for hardware_destructive_interference_size.
  static constexpr std::size_t kCacheLine = 64;

  explicit BasicRingBuffer(std::size_t capacity_pow2,
                           FullPolicy policy = FullPolicy::kDiscard)
      : capacity_(capacity_pow2), mask_(capacity_pow2 - 1), policy_(policy),
        // One-time slot allocation at buffer construction (setup).
        slots_(std::make_unique<Slot[]>(capacity_pow2)) {  // osn-lint: allow(hot-path-alloc) setup
    OSN_ASSERT_MSG(capacity_pow2 >= 2 && (capacity_pow2 & mask_) == 0,
                   "capacity must be a power of two >= 2");
  }

  BasicRingBuffer(const BasicRingBuffer&) = delete;
  BasicRingBuffer& operator=(const BasicRingBuffer&) = delete;

  /// Producer side. Returns false when the record was discarded (kDiscard
  /// policy, buffer full). Wait-free.
  bool try_push(const EventRecord& rec) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail >= capacity_) {
      if (policy_ == FullPolicy::kDiscard) {
        lost_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      // Overwrite: reclaim the oldest slot. Safe only without a concurrent
      // consumer (see file comment); the producer owns both indices then.
      if constexpr (Policy::kCheckContracts) {
        OSN_DASSERT_MSG(!consumer_attached_.load(std::memory_order_relaxed),
                        "overwrite reclaim with a consumer attached");
      }
      tail_.store(tail + 1, std::memory_order_relaxed);
      overwritten_.fetch_add(1, std::memory_order_relaxed);
    }
    slots_[head & mask_].store(rec);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Empty optional when no record is available. Wait-free.
  std::optional<EventRecord> try_pop() {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return std::nullopt;
    EventRecord rec = slots_[tail & mask_].load();
    tail_.store(tail + 1, std::memory_order_release);
    return rec;
  }

  /// Consumer side, batched: pops up to `out.size()` records with a single
  /// head acquire and a single tail release, amortizing the atomics that
  /// dominate per-record pop cost. Returns the number of records written to
  /// the front of `out`. Wait-free.
  std::size_t try_pop_batch(std::span<EventRecord> out) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t avail = head - tail;
    if (avail == 0 || out.empty()) return 0;
    const std::size_t n = std::min<std::size_t>(out.size(), static_cast<std::size_t>(avail));
    for (std::size_t i = 0; i < n; ++i) out[i] = slots_[(tail + i) & mask_].load();
    tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  /// Drains everything currently visible into `out`; returns count.
  std::size_t drain(std::vector<EventRecord>& out) {
    // Drain runs on the consumer/daemon side, not under a producer.
    out.reserve(out.size() + size());  // osn-lint: allow(hot-path-alloc) drain
    std::size_t n = 0;
    while (auto rec = try_pop()) {
      out.push_back(*rec);  // osn-lint: allow(hot-path-alloc) drain
      ++n;
    }
    return n;
  }

  /// Marks that a consumer (daemon) is actively draining this buffer, which
  /// is incompatible with kOverwrite reclaim (the producer would race the
  /// consumer for `tail_`). try_push asserts this on the reclaim path.
  void attach_consumer() {
    OSN_ASSERT_MSG(!consumer_attached_.exchange(true, std::memory_order_relaxed),
                   "ring buffer already has a consumer attached");
  }
  void detach_consumer() { consumer_attached_.store(false, std::memory_order_relaxed); }
  bool consumer_attached() const {
    return consumer_attached_.load(std::memory_order_relaxed);
  }

  std::size_t capacity() const { return capacity_; }
  /// Clamped to capacity(): during an overwrite reclaim the two indices are
  /// updated separately, so a racing reader could otherwise transiently see
  /// head - tail == capacity + 1.
  std::size_t size() const {
    const auto raw = static_cast<std::size_t>(head_.load(std::memory_order_acquire) -
                                              tail_.load(std::memory_order_acquire));
    return std::min(raw, capacity_);
  }
  bool empty() const { return size() == 0; }
  std::uint64_t lost() const { return lost_.load(std::memory_order_relaxed); }
  std::uint64_t overwritten() const { return overwritten_.load(std::memory_order_relaxed); }

 private:
  template <class T>
  using Atomic = typename Policy::template Atomic<T>;
  using Slot = typename Policy::template Cell<EventRecord>;

  const std::size_t capacity_;
  const std::size_t mask_;
  const FullPolicy policy_;
  std::unique_ptr<Slot[]> slots_;

  alignas(kCacheLine) Atomic<std::uint64_t> head_{0};  // producer-owned
  alignas(kCacheLine) Atomic<std::uint64_t> tail_{0};  // consumer-owned
  alignas(kCacheLine) Atomic<std::uint64_t> lost_{0};
  Atomic<std::uint64_t> overwritten_{0};
  Atomic<bool> consumer_attached_{false};
};

using RingBuffer = BasicRingBuffer<StdAtomicsPolicy>;

}  // namespace osn::tracebuf
