#include "export/index_summary.hpp"

#include <array>
#include <limits>
#include <map>

#include "noise/classify.hpp"
#include "noise/interval.hpp"

namespace osn::exporter {

namespace {

constexpr std::size_t kKinds = static_cast<std::size_t>(noise::ActivityKind::kMaxKind);
constexpr std::size_t kCats = static_cast<std::size_t>(noise::NoiseCategory::kMaxCategory);
constexpr std::size_t kPreKind = static_cast<std::size_t>(noise::ActivityKind::kPreemption);
constexpr std::size_t kPreCat = static_cast<std::size_t>(noise::NoiseCategory::kPreemption);
constexpr std::size_t kReqCat =
    static_cast<std::size_t>(noise::NoiseCategory::kRequestedService);

/// Per-application-task reduction of the noise and preemption lists.
struct TaskNoise {
  trace::AggAccum preempt;  ///< full preemption accumulator (activity stats)
  std::uint64_t cex_count = 0;  ///< comm-excluded preemptions (noise list)
  std::uint64_t cex_sum = 0;
  std::array<std::uint64_t, kCats> cat_count{};
  std::array<std::uint64_t, kCats> cat_sum{};
};

}  // namespace

std::optional<SummaryData> index_summary_data(const trace::OsntReader& reader) {
  const std::optional<trace::IndexSummary>& summary = reader.index_summary();
  if (!summary) return std::nullopt;
  return index_summary_data(*summary, reader.meta(), reader.tasks());
}

std::optional<SummaryData> index_summary_data(const trace::IndexSummary& summary,
                                              const trace::TraceMeta& meta,
                                              const std::map<Pid, trace::TaskInfo>& tasks) {
  const auto is_app = [&tasks](std::uint64_t task) {
    if (task > std::numeric_limits<Pid>::max()) return false;
    const auto it = tasks.find(static_cast<Pid>(task));
    return it != tasks.end() && it->second.is_app;
  };

  std::array<trace::AggAccum, kKinds> classes{};
  std::map<Pid, TaskNoise> per_task;
  std::uint64_t events = 0;

  const auto merge_one = [&](const trace::ChunkAggregate& agg) {
    for (const auto& c : agg.classes) {
      // Kernel-interval classes only: kPreemption is derived and lives in
      // the preempt list; a blob claiming otherwise was not written by our
      // aggregator, so refuse the fast path rather than guess.
      if (c.cls >= kKinds || c.cls == kPreKind) return false;
      classes[c.cls].merge(c.acc);
    }
    for (const auto& p : agg.preempt) {
      if (!is_app(p.task)) continue;  // filtering deferred to read time
      TaskNoise& t = per_task[static_cast<Pid>(p.task)];
      t.preempt.merge(p.acc);
      t.cex_count += p.cex_count;
      t.cex_sum += p.cex_sum;
    }
    for (const auto& n : agg.noise) {
      if (n.cat >= kCats || n.cat == kReqCat) return false;
      if (!is_app(n.task)) continue;
      TaskNoise& t = per_task[static_cast<Pid>(n.task)];
      t.cat_count[n.cat] += n.count;
      t.cat_sum[n.cat] += n.sum;
    }
    for (const auto& e : agg.cpu_events) {
      // A record on a CPU the metadata does not know would make record
      // decode throw; such a file has no "equivalent slow path" to match.
      if (e.cpu >= meta.n_cpus) return false;
      events += e.count;
    }
    return true;
  };

  for (const trace::ChunkAggregate& agg : summary.chunks)
    if (!merge_one(agg)) return std::nullopt;
  if (!merge_one(summary.tail)) return std::nullopt;

  SummaryData data;
  data.workload = meta.workload;
  data.duration_ns = meta.end_ns - meta.start_ns;
  data.cpus = meta.n_cpus;
  data.tick_period_ns = meta.tick_period_ns;
  data.events = events;

  trace::AggAccum preempt_all;
  for (const auto& [pid, t] : per_task) preempt_all.merge(t.preempt);
  for (std::size_t k = 0; k < kKinds; ++k) {
    const trace::AggAccum& acc = k == kPreKind ? preempt_all : classes[k];
    data.activities[k] = noise::to_stats(acc, data.duration_ns, meta.n_cpus);
  }

  std::uint64_t noise_intervals = 0;
  for (const auto& [pid, t] : per_task) {
    noise_intervals += t.cex_count;
    for (std::size_t c = 0; c < kCats; ++c) noise_intervals += t.cat_count[c];
  }
  data.noise_intervals = noise_intervals;

  for (const auto& [pid, info] : tasks) {
    if (!info.is_app) continue;
    SummaryData::Rank rank;
    rank.pid = pid;
    rank.name = pid == kIdlePid ? "idle" : info.name;
    const auto it = per_task.find(pid);
    if (it != per_task.end()) {
      const TaskNoise& t = it->second;
      for (std::size_t c = 0; c < kCats; ++c) rank.by_category[c] = t.cat_sum[c];
      rank.by_category[kPreCat] += t.cex_sum;
    }
    rank.total_noise_ns = noise::noise_total(rank.by_category);
    data.ranks.push_back(std::move(rank));
  }
  return data;
}

std::optional<std::string> index_summary_json(const trace::OsntReader& reader) {
  const std::optional<SummaryData> data = index_summary_data(reader);
  if (!data) return std::nullopt;
  return render_summary(*data);
}

}  // namespace osn::exporter
