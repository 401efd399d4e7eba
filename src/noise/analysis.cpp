#include "noise/analysis.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"

namespace osn::noise {

EventStats to_stats(const trace::AggAccum& acc, DurNs duration, std::uint16_t n_cpus) {
  EventStats out;
  out.count = acc.count;
  const double duration_sec =
      static_cast<double>(duration) / static_cast<double>(kNsPerSec);
  if (duration_sec > 0 && n_cpus > 0)
    out.freq_ev_per_sec =
        static_cast<double>(acc.count) / duration_sec / static_cast<double>(n_cpus);
  if (acc.count > 0) {
    out.avg_ns = static_cast<double>(acc.sum) / static_cast<double>(acc.count);
    out.max_ns = acc.max;
    out.min_ns = acc.min;
  }
  return out;
}

NoiseAnalysis::NoiseAnalysis(const trace::TraceModel& model, AnalysisOptions options)
    : model_(&model), options_(options) {
  const std::size_t jobs = ThreadPool::resolve_jobs(options_.jobs);
  if (jobs > 1) pool_ = std::make_unique<ThreadPool>(jobs);
  run_pipeline();
}

void ShardPass::add_stats(const ShardPass& other) {
  for (std::size_t k = 0; k < kinds.size(); ++k) kinds[k].merge(other.kinds[k]);
  ranks.resize(std::max(ranks.size(), other.ranks.size()), CategoryBreakdown{});
  for (std::size_t r = 0; r < other.ranks.size(); ++r)
    for (std::size_t c = 0; c < ranks[r].size(); ++c) ranks[r][c] += other.ranks[r][c];
}

NoiseFilter::NoiseFilter(const trace::TraceModel& model, const std::vector<CommWindow>& comm,
                         const AnalysisOptions& options)
    : options_(options), app_pids_(model.app_pids()) {
  // Only application ranks' windows matter: the filter drops every other
  // task before it asks. Each rank's windows keep their scan order into the
  // sort, so equal starts resolve as they always have.
  std::vector<std::vector<CommWindow>> by_rank(app_pids_.size());
  for (const CommWindow& w : comm) {
    const std::size_t rank = rank_of(w.task);
    if (rank != kNotApp) by_rank[rank].push_back(w);
  }
  window_begin_.assign(1, 0);
  for (std::vector<CommWindow>& windows : by_rank) {
    std::sort(windows.begin(), windows.end(),
              [](const CommWindow& a, const CommWindow& b) { return a.start < b.start; });
    windows_.insert(windows_.end(), windows.begin(), windows.end());
    window_begin_.push_back(windows_.size());
  }
}

std::size_t NoiseFilter::rank_of(Pid task) const {
  const auto it = std::lower_bound(app_pids_.begin(), app_pids_.end(), task);
  return it != app_pids_.end() && *it == task ? static_cast<std::size_t>(it - app_pids_.begin())
                                              : kNotApp;
}

bool NoiseFilter::rank_in_comm_window(std::size_t rank, TimeNs t) const {
  const auto begin = windows_.begin() + static_cast<std::ptrdiff_t>(window_begin_[rank]);
  const auto end = windows_.begin() + static_cast<std::ptrdiff_t>(window_begin_[rank + 1]);
  // First window starting after t, then check its predecessor.
  auto upper = std::upper_bound(begin, end, t,
                                [](TimeNs v, const CommWindow& w) { return v < w.start; });
  if (upper == begin) return false;
  --upper;
  return t < upper->end;
}

bool NoiseFilter::in_comm_window(Pid task, TimeNs t) const {
  const std::size_t rank = rank_of(task);
  return rank != kNotApp && rank_in_comm_window(rank, t);
}

ShardPass NoiseFilter::pass(const std::vector<Interval>& shard) const {
  OSN_ASSERT_MSG(shard.size() <= std::numeric_limits<std::uint32_t>::max(),
                 "shard positions fit 32 bits");
  ShardPass out;
  out.ranks.assign(app_pids_.size(), CategoryBreakdown{});
  out.keep.reserve(shard.size());
  // Consecutive intervals on one CPU are mostly the same task's.
  Pid last_task = 0;
  std::size_t last_rank = kNotApp;
  bool looked_up = false;
  for (std::size_t i = 0; i < shard.size(); ++i) {
    const Interval& iv = shard[i];
    const DurNs d = charged(iv);
    out.kinds[static_cast<std::size_t>(iv.kind)].add(d);
    const NoiseCategory cat = categorize(iv.kind);
    if (cat == NoiseCategory::kRequestedService && !options_.include_requested_service)
      continue;
    if (!looked_up || iv.task != last_task) {
      last_rank = rank_of(iv.task);
      last_task = iv.task;
      looked_up = true;
    }
    if (options_.runnable_filter &&
        (last_rank == kNotApp || rank_in_comm_window(last_rank, iv.start)))
      continue;
    out.keep.push_back(static_cast<std::uint32_t>(i));
    if (last_rank != kNotApp) out.ranks[last_rank][static_cast<std::size_t>(cat)] += d;
  }
  return out;
}

void NoiseAnalysis::run_pipeline() {
  intervals_ = build_intervals(*model_, pool_.get());
  filter_ = std::make_unique<NoiseFilter>(*model_, intervals_.comm, options_);

  // One pass per shard: each CPU's kernel intervals, then the preemption
  // list. Shards are independent reads, so they run on the pool.
  const std::size_t n_shards = intervals_.kernel_by_cpu.size() + 1;
  auto shard = [&](std::size_t s) -> const std::vector<Interval>& {
    return s + 1 < n_shards ? intervals_.kernel_by_cpu[s] : intervals_.preemption;
  };
  std::vector<ShardPass> passes(n_shards);
  auto run_shard = [&](std::size_t s) { passes[s] = filter_->pass(shard(s)); };
  if (pool_ != nullptr) {
    pool_->parallel_for(n_shards, run_shard);
  } else {
    for (std::size_t s = 0; s < n_shards; ++s) run_shard(s);
  }

  // Exact reduce in shard order, then one merge of the survivors only: the
  // same bytes at every --jobs value.
  totals_ = ShardPass{};
  std::vector<ShardView> survivors;
  survivors.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    totals_.add_stats(passes[s]);
    survivors.push_back(ShardView{&shard(s), &passes[s].keep});
  }
  noise_ = merge_shards(survivors);
}

EventStats NoiseAnalysis::activity_stats(ActivityKind kind) const {
  return to_stats(totals_.kinds[static_cast<std::size_t>(kind)], model_->duration(),
                                                               model_->cpu_count());
}

std::vector<double> NoiseAnalysis::noise_durations(ActivityKind kind) const {
  std::vector<double> out;
  for (const Interval& iv : noise_intervals())
    if (iv.kind == kind) out.push_back(static_cast<double>(charged(iv)));
  return out;
}

CategoryBreakdown NoiseAnalysis::category_breakdown(Pid task) const {
  CategoryBreakdown out{};
  for (const Interval& iv : noise_intervals()) {
    if (iv.task != task) continue;
    out[static_cast<std::size_t>(categorize(iv.kind))] += charged(iv);
  }
  return out;
}

CategoryBreakdown NoiseAnalysis::category_breakdown_all() const {
  CategoryBreakdown out{};
  for (const CategoryBreakdown& rank : totals_.ranks)
    for (std::size_t c = 0; c < out.size(); ++c) out[c] += rank[c];
  return out;
}

DurNs NoiseAnalysis::total_noise(Pid task) const {
  return noise_total(category_breakdown(task));
}

}  // namespace osn::noise
