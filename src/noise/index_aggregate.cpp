#include "noise/index_aggregate.hpp"

#include "trace/schema.hpp"

namespace osn::noise {

using trace::EventType;

void IndexAggregator::on_record(const tracebuf::EventRecord& rec) {
  if (dirty_) return;
  ++cpu_events_[rec.cpu];

  const auto type = static_cast<EventType>(rec.event);
  if (rec.cpu >= stacks_.size()) stacks_.resize(rec.cpu + std::size_t{1});
  if (trace::is_entry(type)) {
    const Entry entry{rec.pid, tasks_.in_comm(rec.pid)};
    dirty_ = stacks_[rec.cpu].enter(rec, entry) != ScanFault::kNone;
  } else if (trace::is_exit(type)) {
    NestingStack<Entry>::Closed closed;
    dirty_ = stacks_[rec.cpu].exit(rec, closed) != ScanFault::kNone;
    if (!dirty_) add_kernel(closed);
  } else if (type == EventType::kSchedSwitch) {
    // Every task is tracked (the reader sums the application subset): the
    // machines are per task, so the extra state cannot perturb the rest.
    const auto closed = [this](const Interval& iv, bool in_comm) {
      add_preemption(iv, in_comm, /*notify=*/true);
    };
    dirty_ = tasks_.on_switch(rec, [](Pid) { return true; }, closed) != ScanFault::kNone;
  } else if (type == EventType::kAppMark) {
    dirty_ = tasks_.on_mark(rec, [](const CommWindow&) {});  // a re-enter vetoes
  }
}

void IndexAggregator::add_kernel(const NestingStack<Entry>::Closed& closed) {
  classes_[static_cast<std::uint64_t>(closed.kind)].add(closed.self);
  const NoiseCategory cat = categorize(closed.kind);
  if (cat != NoiseCategory::kRequestedService && !closed.payload.in_comm) {
    auto& [count, sum] = noise_[{closed.payload.task, static_cast<std::uint64_t>(cat)}];
    ++count;
    sum += closed.self;
    if (observer_) observer_(closed.payload.task, cat, closed.end, closed.self);
  }
}

void IndexAggregator::add_preemption(const Interval& iv, bool in_comm, bool notify) {
  PreAccum& acc = preempt_[iv.task];
  acc.acc.add(iv.self);
  if (!in_comm) {
    ++acc.cex_count;
    acc.cex_sum += iv.self;
    if (notify && observer_) observer_(iv.task, NoiseCategory::kPreemption, iv.end, iv.self);
  }
}

bool IndexAggregator::stacks_empty() const {
  for (const auto& stack : stacks_)
    if (!stack.empty()) return false;
  return true;
}

bool IndexAggregator::quiescent() const {
  return !dirty_ && stacks_empty() && tasks_.all_idle();
}

trace::ChunkAggregate IndexAggregator::take_chunk() {
  // Open intervals carry over: an interval is attributed to the chunk where
  // it closes, which keeps whole-file merges exact.
  trace::ChunkAggregate out;
  out.classes.reserve(classes_.size());
  for (const auto& [cls, acc] : classes_)
    out.classes.push_back(trace::ChunkAggregate::ClassAccum{cls, acc});
  classes_.clear();
  out.preempt.reserve(preempt_.size());
  for (const auto& [task, p] : preempt_)
    out.preempt.push_back(
        trace::ChunkAggregate::PreAccum{task, p.acc, p.cex_count, p.cex_sum});
  preempt_.clear();
  out.noise.reserve(noise_.size());
  for (const auto& [key, val] : noise_)
    out.noise.push_back(
        trace::ChunkAggregate::NoiseAccum{key.first, key.second, val.first, val.second});
  noise_.clear();
  out.cpu_events.reserve(cpu_events_.size());
  for (const auto& [cpu, count] : cpu_events_)
    out.cpu_events.push_back(trace::ChunkAggregate::CpuCount{cpu, count});
  cpu_events_.clear();
  return out;
}

std::optional<trace::ChunkAggregate> IndexAggregator::take_tail(const trace::TraceMeta& meta) {
  // An unclosed kernel interval vetoes like damaged input does.
  if (dirty_ || poisoned_ || !stacks_empty()) return std::nullopt;
  // A task still preempted when tracing stopped contributes the observed
  // portion, closed at the trace end like build_intervals does. These are
  // storage bookkeeping, not live observations — the observer stays silent.
  tasks_.close_all(
      meta.end_ns, [this](const Interval& iv, bool in_comm) { add_preemption(iv, in_comm, false); },
      [](const CommWindow&) {});
  return take_chunk();
}

}  // namespace osn::noise
