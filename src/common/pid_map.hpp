// A flat hash map keyed by task id, for the per-record sinks.
//
// The interval sinks look a task up on most records (is it in a
// communication window? whose preemption closes?). A std::map<Pid, T> pays a
// tree walk per lookup and a node allocation per new task; PidMap pays one
// multiplicative hash and, almost always, one probe. Values live in a dense
// vector in first-insertion order; an open-addressed index (linear probing,
// load at most 1/2) maps a pid to its slot. Memory is O(distinct pids
// inserted): nothing is ever indexed by a raw pid, so a hostile 0xFFFFFFFF
// costs one slot like any other.
//
// There is no erase (owners clear() wholesale) and no unordered walk:
// for_each_sorted() visits in pid order, the order every owner's output
// takes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace osn {

template <class T>
class PidMap {
 public:
  /// The value of `pid`, or nullptr.
  const T* find(Pid pid) const {
    const std::uint32_t pos = index_.empty() ? 0 : index_[probe(pid)].pos;
    return pos == 0 ? nullptr : &entries_[pos - 1].second;
  }
  T* find(Pid pid) { return const_cast<T*>(std::as_const(*this).find(pid)); }

  /// The value of `pid`, value-initialized on first use. The reference stays
  /// valid until the next insertion.
  T& operator[](Pid pid) {
    if (2 * (entries_.size() + 1) > index_.size()) grow();
    Slot& slot = index_[probe(pid)];
    if (slot.pos == 0) {
      entries_.emplace_back(pid, T{});
      slot = Slot{pid, static_cast<std::uint32_t>(entries_.size())};
    }
    return entries_[slot.pos - 1].second;
  }

  /// Forgets every pid; keeps the capacity.
  void clear() {
    entries_.clear();
    std::fill(index_.begin(), index_.end(), Slot{});
  }

  /// Calls f(pid, value) in ascending pid order.
  template <class F>
  void for_each_sorted(F&& f) {
    std::vector<std::uint32_t> order(entries_.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [this](std::uint32_t a, std::uint32_t b) {
      return entries_[a].first < entries_[b].first;
    });
    for (const std::uint32_t i : order) f(entries_[i].first, entries_[i].second);
  }

 private:
  struct Slot {
    Pid key = 0;
    std::uint32_t pos = 0;  ///< 1 + index into entries_; 0 = empty
  };

  /// The slot holding `pid`, or the empty slot where it would go.
  std::size_t probe(Pid pid) const {
    const std::size_t mask = index_.size() - 1;
    // Fibonacci hashing: the top bits of pid * 2^64/phi spread consecutive
    // pids across the table.
    std::size_t i = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(pid) * 0x9E3779B97F4A7C15ull) >> shift_);
    while (index_[i].pos != 0 && index_[i].key != pid) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    const std::size_t capacity = index_.empty() ? 16 : 2 * index_.size();
    index_.assign(capacity, Slot{});
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (std::uint32_t i = 0; i < entries_.size(); ++i)
      index_[probe(entries_[i].first)] = Slot{entries_[i].first, i + 1};
  }

  std::vector<std::pair<Pid, T>> entries_;
  std::vector<Slot> index_;  ///< power-of-two size, at most half full
  unsigned shift_ = 64;      ///< 64 - log2(index_.size())
};

}  // namespace osn
