#include "sim/engine.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace osn::sim {

namespace {
// Below this size the residue is too small to be worth filtering.
constexpr std::size_t kCompactMinHeap = 64;
}  // namespace

EventId Engine::schedule_at(TimeNs t, std::function<void()> fn) {
  OSN_ASSERT_MSG(t >= now_, "cannot schedule into the past");
  OSN_ASSERT_MSG(fn != nullptr, "null callback");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    OSN_ASSERT_MSG(slots_.size() < UINT32_MAX, "too many pending events");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  const EventId id = slots_[slot].generation << 32 | slot;
  heap_.push_back(HeapItem{t, next_seq_++, id});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

std::function<void()> Engine::release(EventId id) {
  Slot& s = slots_[static_cast<std::uint32_t>(id)];
  std::function<void()> fn = std::move(s.fn);
  s.fn = nullptr;
  s.generation = (s.generation + 1) & UINT32_MAX;
  if (s.generation == 0) s.generation = 1;
  free_slots_.push_back(static_cast<std::uint32_t>(id));
  return fn;
}

void Engine::cancel(EventId id) {
  if (!pending(id)) return;
  release(id);
  // The heap entry stays behind (lazy cancellation). Every heap entry maps
  // to a live callback unless cancelled, so the stale count is the size
  // difference; compact once stale entries exceed half the heap.
  if (heap_.size() >= kCompactMinHeap && heap_.size() > 2 * pending_count()) compact_heap();
}

void Engine::compact_heap() {
  std::erase_if(heap_, [this](const HeapItem& item) { return !pending(item.id); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

bool Engine::step(TimeNs t_limit) {
  while (!heap_.empty()) {
    const HeapItem item = heap_.front();
    if (item.time > t_limit) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    if (!pending(item.id)) continue;  // lazily-cancelled entry
    // Free the slot before the call: the callback may (re)schedule into it.
    const std::function<void()> fn = release(item.id);
    OSN_ASSERT(item.time >= now_);
    now_ = item.time;
    ++fired_;
    fn();
    return true;
  }
  return false;
}

void Engine::run() {
  stopped_ = false;
  while (!stopped_ && step(kTimeInfinity)) {
  }
}

void Engine::run_until(TimeNs t_end) {
  OSN_ASSERT(t_end >= now_);
  stopped_ = false;
  while (!stopped_ && step(t_end)) {
  }
  if (!stopped_ && now_ < t_end) now_ = t_end;
}

}  // namespace osn::sim
