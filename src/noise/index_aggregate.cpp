#include "noise/index_aggregate.hpp"

#include "trace/schema.hpp"

namespace osn::noise {

using trace::EventType;

void IndexAggregator::on_record(const tracebuf::EventRecord& rec) {
  if (dirty_) return;
  if (rec.cpu >= stacks_.size()) {
    stacks_.resize(rec.cpu + std::size_t{1});
    cpu_events_.resize(stacks_.size(), 0);
  }
  ++cpu_events_[rec.cpu];

  const auto type = static_cast<EventType>(rec.event);
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
  classes_[static_cast<std::size_t>(closed.kind)].add(closed.self);
  const NoiseCategory cat = categorize(closed.kind);
  if (cat != NoiseCategory::kRequestedService && !closed.payload.in_comm) {
    TaskAccum& acc = task_accums_[closed.payload.task];
    ++acc.noise_count[static_cast<std::size_t>(cat)];
    acc.noise_sum[static_cast<std::size_t>(cat)] += closed.self;
    if (observer_) observer_(closed.payload.task, cat, closed.end, closed.self);
  }
}

void IndexAggregator::add_preemption(const Interval& iv, bool in_comm, bool notify) {
  TaskAccum& acc = task_accums_[iv.task];
  acc.pre.add(iv.self);
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
  // it closes, which keeps whole-file merges exact. Every list comes out
  // sparse and sorted by key: classes by kind, tasks by pid (then noise by
  // category), cpus by id.
  trace::ChunkAggregate out;
  for (std::size_t kind = 0; kind < kKinds; ++kind) {
    if (classes_[kind].count == 0) continue;
    out.classes.push_back(trace::ChunkAggregate::ClassAccum{kind, classes_[kind]});
    classes_[kind] = trace::AggAccum{};
  }
  task_accums_.for_each_sorted([&out](Pid task, const TaskAccum& acc) {
    if (acc.pre.count != 0)
      out.preempt.push_back(
          trace::ChunkAggregate::PreAccum{task, acc.pre, acc.cex_count, acc.cex_sum});
    for (std::size_t cat = 0; cat < kCategories; ++cat)
      if (acc.noise_count[cat] != 0)
        out.noise.push_back(trace::ChunkAggregate::NoiseAccum{task, cat, acc.noise_count[cat],
                                                              acc.noise_sum[cat]});
  });
  task_accums_.clear();
  for (std::size_t cpu = 0; cpu < cpu_events_.size(); ++cpu) {
    if (cpu_events_[cpu] == 0) continue;
    out.cpu_events.push_back(trace::ChunkAggregate::CpuCount{cpu, cpu_events_[cpu]});
    cpu_events_[cpu] = 0;
  }
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
