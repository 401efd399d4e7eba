#include "noise/streaming.hpp"

#include "trace/schema.hpp"

namespace osn::noise {

void StreamingStats::consume(const tracebuf::EventRecord& rec) {
  ++consumed_;
  const auto type = static_cast<trace::EventType>(rec.event);
  if (rec.cpu >= stacks_.size()) stacks_.resize(rec.cpu + 1u);
  NestingStack<NoPayload>& stack = stacks_[rec.cpu];

  ScanFault fault = ScanFault::kNone;
  if (trace::is_entry(type)) {
    fault = stack.enter(rec, NoPayload{});
  } else if (trace::is_exit(type)) {
    NestingStack<NoPayload>::Closed closed;
    fault = stack.exit(rec, closed);
    if (fault == ScanFault::kNone) accums_[static_cast<std::size_t>(closed.kind)].add(closed.self);
  }
  if (fault != ScanFault::kNone) throw_scan_fault(rec.cpu, rec.timestamp, fault);
}

EventStats StreamingStats::activity_stats(ActivityKind kind, DurNs duration,
                                          std::uint16_t n_cpus) const {
  return to_stats(accums_[static_cast<std::size_t>(kind)], duration, n_cpus);
}

std::size_t StreamingStats::open_frames() const {
  std::size_t open = 0;
  for (const auto& stack : stacks_) open += stack.size();
  return open;
}

}  // namespace osn::noise
