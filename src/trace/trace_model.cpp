#include "trace/trace_model.hpp"

#include "common/assert.hpp"

namespace osn::trace {

TraceModel::TraceModel(TraceMeta meta, std::vector<std::vector<tracebuf::EventRecord>> per_cpu,
                       std::map<Pid, TaskInfo> tasks)
    : meta_(std::move(meta)), per_cpu_(std::move(per_cpu)), tasks_(std::move(tasks)) {
  OSN_ASSERT_MSG(per_cpu_.size() == meta_.n_cpus, "per-cpu stream count != n_cpus");
}

std::size_t TraceModel::total_events() const {
  std::size_t n = 0;
  for (const auto& v : per_cpu_) n += v.size();
  return n;
}

std::size_t TraceModel::footprint_bytes() const {
  std::size_t bytes = sizeof(TraceModel);
  bytes += per_cpu_.capacity() * sizeof(std::vector<tracebuf::EventRecord>);
  for (const auto& v : per_cpu_) bytes += v.capacity() * sizeof(tracebuf::EventRecord);
  bytes += meta_.workload.capacity();
  for (const auto& [pid, info] : tasks_) {
    (void)pid;
    // Red-black tree node: key/value pair plus parent/child pointers + color.
    bytes += sizeof(std::pair<const Pid, TaskInfo>) + 4 * sizeof(void*);
    bytes += info.name.capacity();
  }
  return bytes;
}

const TaskInfo* TraceModel::find_task(Pid pid) const {
  auto it = tasks_.find(pid);
  return it == tasks_.end() ? nullptr : &it->second;
}

bool TraceModel::is_app(Pid pid) const {
  const TaskInfo* t = find_task(pid);
  return t != nullptr && t->is_app;
}

std::string TraceModel::task_name(Pid pid) const {
  if (pid == kIdlePid) return "idle";
  const TaskInfo* t = find_task(pid);
  return t != nullptr ? t->name : ("pid-" + std::to_string(pid));
}

std::vector<Pid> TraceModel::app_pids() const {
  std::vector<Pid> out;
  for (const auto& [pid, info] : tasks_)
    if (info.is_app) out.push_back(pid);
  return out;
}

std::vector<tracebuf::EventRecord> TraceModel::merged() const {
  std::vector<tracebuf::EventRecord> all;
  all.reserve(total_events());
  for_each_merged([&](const tracebuf::EventRecord& rec) { all.push_back(rec); });
  return all;
}

std::string TraceModel::validate() const {
  for (CpuId c = 0; c < meta_.n_cpus; ++c) {
    const auto& stream = per_cpu_[c];
    TimeNs prev = 0;
    // Entry/exit discipline: properly nested per CPU, like call frames.
    std::vector<EventType> stack;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto& rec = stream[i];
      if (rec.timestamp < prev)
        return "cpu " + std::to_string(c) + ": timestamp regression at index " +
               std::to_string(i);
      prev = rec.timestamp;
      const auto type = static_cast<EventType>(rec.event);
      if (is_entry(type)) {
        stack.push_back(type);
      } else if (is_exit(type)) {
        if (stack.empty())
          return "cpu " + std::to_string(c) + ": exit without entry at index " +
                 std::to_string(i);
        if (stack.back() != entry_of(type))
          return "cpu " + std::to_string(c) + ": mismatched exit " +
                 std::string(event_name(type)) + " at index " + std::to_string(i);
        stack.pop_back();
      }
    }
    if (!stack.empty())
      return "cpu " + std::to_string(c) + ": " + std::to_string(stack.size()) +
             " unclosed entries at end of trace";
  }
  return {};
}

}  // namespace osn::trace
