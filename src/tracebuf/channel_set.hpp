// A set of per-CPU channels — the tracer's session object.
//
// Mirrors an LTTng tracing session: one ring buffer per CPU, a consumer that
// merges the per-CPU streams back into global timestamp order, and loss
// accounting across the whole set.
//
// Templated on the atomics policy (atomics_policy.hpp) so litmus tests can
// instantiate the exact production merge logic under the model checker;
// ChannelSet is the production instantiation (compiled in channel_set.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <queue>
#include <vector>

#include "common/types.hpp"
#include "tracebuf/ring_buffer.hpp"

namespace osn::tracebuf {

template <class Policy>
class BasicChannelSet {
 public:
  BasicChannelSet(std::size_t n_cpus, std::size_t per_cpu_capacity_pow2,
                  FullPolicy policy = FullPolicy::kDiscard) {
    OSN_ASSERT_MSG(n_cpus >= 1, "need at least one CPU channel");
    // Session construction, before any producer runs.
    channels_.reserve(n_cpus);  // osn-lint: allow(hot-path-alloc) setup
    for (std::size_t i = 0; i < n_cpus; ++i)
      channels_.push_back(  // osn-lint: allow(hot-path-alloc) setup
          std::make_unique<BasicRingBuffer<Policy>>(  // osn-lint: allow(hot-path-alloc) setup
              per_cpu_capacity_pow2, policy));
  }

  /// Hot path: record an event on `cpu`'s channel. Returns false on discard.
  /// An out-of-range cpu is a contract violation, not silent UB.
  bool emit(CpuId cpu, const EventRecord& rec) {
    if constexpr (Policy::kCheckContracts) {
      OSN_DASSERT_MSG(cpu < channels_.size(), "emit: cpu out of channel range");
    }
    return channels_[cpu]->try_push(rec);
  }

  std::size_t cpu_count() const { return channels_.size(); }
  BasicRingBuffer<Policy>& channel(CpuId cpu) { return *channels_[cpu]; }
  const BasicRingBuffer<Policy>& channel(CpuId cpu) const { return *channels_[cpu]; }

  /// Total records discarded across all channels.
  std::uint64_t total_lost() const {
    std::uint64_t total = 0;
    for (const auto& ch : channels_) total += ch->lost();
    return total;
  }
  /// Total records reclaimed by kOverwrite across all channels.
  std::uint64_t total_overwritten() const {
    std::uint64_t total = 0;
    for (const auto& ch : channels_) total += ch->overwritten();
    return total;
  }

  /// Drains each channel into its own vector (index = cpu).
  std::vector<std::vector<EventRecord>> drain_per_cpu() {
    std::vector<std::vector<EventRecord>> out(channels_.size());
    for (std::size_t c = 0; c < channels_.size(); ++c) {
      // Drain runs on the consumer daemon, off the producers' hot path.
      out[c].reserve(channels_[c]->size());  // osn-lint: allow(hot-path-alloc) drain
      channels_[c]->drain(out[c]);
    }
    return out;
  }

  /// Drains every channel and merges the streams into a single vector sorted
  /// by (timestamp, cpu). Per-CPU streams are individually time-ordered (each
  /// CPU's clock is monotonic), so this is a k-way merge.
  std::vector<EventRecord> drain_merged() {
    auto per_cpu = drain_per_cpu();

    // K-way merge by (timestamp, cpu); each per-CPU stream is already sorted.
    struct Cursor {
      const std::vector<EventRecord>* stream;
      std::size_t pos;
      std::uint16_t cpu;
    };
    auto later = [](const Cursor& a, const Cursor& b) {
      const EventRecord& ra = (*a.stream)[a.pos];
      const EventRecord& rb = (*b.stream)[b.pos];
      if (ra.timestamp != rb.timestamp) return ra.timestamp > rb.timestamp;
      return a.cpu > b.cpu;
    };
    std::priority_queue<Cursor, std::vector<Cursor>, decltype(later)> heap(later);

    std::size_t total = 0;
    for (std::size_t c = 0; c < per_cpu.size(); ++c) {
      total += per_cpu[c].size();
      if (!per_cpu[c].empty())  // drain-side merge, consumer daemon
        heap.push(  // osn-lint: allow(hot-path-alloc) drain
            Cursor{&per_cpu[c], 0, static_cast<std::uint16_t>(c)});
    }

    std::vector<EventRecord> merged;
    merged.reserve(total);  // osn-lint: allow(hot-path-alloc) drain
    while (!heap.empty()) {
      Cursor cur = heap.top();
      heap.pop();
      merged.push_back((*cur.stream)[cur.pos]);  // osn-lint: allow(hot-path-alloc) drain
      if (++cur.pos < cur.stream->size())
        heap.push(cur);  // osn-lint: allow(hot-path-alloc) drain
    }
    return merged;
  }

 private:
  std::vector<std::unique_ptr<BasicRingBuffer<Policy>>> channels_;
};

using ChannelSet = BasicChannelSet<StdAtomicsPolicy>;

extern template class BasicChannelSet<StdAtomicsPolicy>;

}  // namespace osn::tracebuf
