// Server observability counters: request totals per op and per outcome,
// load-shed and deadline counts, cache effectiveness, and request-latency
// quantiles (p50/p90/p99 from a log-bucketed histogram). One instance per
// server; workers bump atomics on the hot path and latency lands in a
// mutex-guarded stats::LogHistogram (one short critical section per
// request). to_json() renders the whole picture as the `metrics` op payload.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/annotations.hpp"
#include "common/types.hpp"
#include "net/event_loop.hpp"
#include "query/lru_cache.hpp"
#include "stats/histogram.hpp"

namespace osn::serve {

using query::CacheStats;

/// The event loop's counters plus the per-wire request totals, sampled at
/// `metrics` render time (the loop owns the live values). The "net" section
/// prints `reading` under its historical key "idle".
struct NetGauges : net::LoopStats {
  const char* backend = "?";        ///< "epoll" or "poll"
  std::uint64_t requests_json = 0;  ///< requests served on the line wire
  std::uint64_t requests_osnb = 0;  ///< requests served on the binary wire
};

class ServerMetrics {
 public:
  // One counter per protocol op, indexed by static_cast<size_t>(Op).
  static constexpr std::size_t kOpSlots = 16;

  void count_request(std::size_t op_index) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (op_index < kOpSlots) per_op_[op_index].fetch_add(1, std::memory_order_relaxed);
  }
  void count_ok() { ok_.fetch_add(1, std::memory_order_relaxed); }
  void count_error() { errors_.fetch_add(1, std::memory_order_relaxed); }
  void count_shed() { shed_.fetch_add(1, std::memory_order_relaxed); }
  void count_deadline_exceeded() {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_bad_line() { bad_lines_.fetch_add(1, std::memory_order_relaxed); }
  void count_connection() { connections_.fetch_add(1, std::memory_order_relaxed); }

  void observe_latency(DurNs ns) {
    std::lock_guard<std::mutex> lock(latency_mutex_);
    latency_.add(ns);
  }

  std::uint64_t requests() const { return requests_.load(std::memory_order_relaxed); }
  std::uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }
  std::uint64_t deadline_exceeded() const {
    return deadline_exceeded_.load(std::memory_order_relaxed);
  }

  /// Full metrics document (the `metrics` op payload): counters, per-op
  /// totals, latency quantiles, both caches' stats, and — when the caller
  /// provides them — the event loop's connection gauges as a "net" section.
  std::string to_json(const CacheStats& results, const CacheStats& models,
                      const NetGauges* net = nullptr) const;

 private:
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> per_op_[kOpSlots] = {};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> bad_lines_{0};
  std::atomic<std::uint64_t> connections_{0};

  mutable std::mutex latency_mutex_;
  stats::LogHistogram latency_ OSN_GUARDED_BY(latency_mutex_);
};

}  // namespace osn::serve
