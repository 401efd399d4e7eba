#include "monitor/monitor.hpp"

#include <algorithm>
#include <utility>

#include "common/json_writer.hpp"

namespace osn::monitor {

Monitor::Monitor(MonitorOptions opts, trace::TraceMeta template_meta,
                 std::map<Pid, trace::TaskInfo> tasks)
    : opts_(std::move(opts)),
      tracker_(opts_.window_ns, template_meta.n_cpus),
      detector_(opts_.detector) {
  // Only application tasks' noise feeds the baseline, as in the summary path
  // (kernel helpers are not the paper's victim). `tasks` is in pid order,
  // so app_pids_ comes out sorted.
  for (const auto& [pid, info] : tasks)
    if (info.is_app) app_pids_.push_back(pid);
  tracker_.start(template_meta.start_ns);
  next_inject_ = opts_.inject.start_ns;
  window_sink_ = [this](const WindowMetrics& m) { detector_.observe(m); };
  // The observer runs inside ingest() (store->append -> writer -> aggregator),
  // so mutex_ is already held; it must not re-lock.
  StoreOptions store_opts = opts_.store;
  store_opts.on_noise = [this](Pid task, noise::NoiseCategory cat, TimeNs end_ts,
                               DurNs charged) {
    if (!std::binary_search(app_pids_.begin(), app_pids_.end(), task)) return;
    observe_noise(cat, end_ts, charged);
  };
  store_ = std::make_unique<SegmentStore>(std::move(store_opts), std::move(template_meta),
                                          std::move(tasks));
}

bool Monitor::ok() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return store_->ok();
}

void Monitor::observe_noise(noise::NoiseCategory cat, TimeNs end_ts, DurNs charged) {
  tracker_.observe(cat, end_ts, charged);
}

void Monitor::ingest(const tracebuf::EventRecord& rec) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Synthetic injection rides the same clock as the stream: deterministic
  // in trace time, invisible to the stored records.
  if (opts_.inject.enabled) {
    while (rec.timestamp >= next_inject_) {
      tracker_.advance(next_inject_, window_sink_);
      tracker_.observe(opts_.inject.category, next_inject_, opts_.inject.duration_ns);
      ++injected_;
      next_inject_ += opts_.inject.period_ns;
    }
  }
  tracker_.advance(rec.timestamp, window_sink_);
  store_->append(rec);
}

void Monitor::finish(TimeNs end_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_) return;
  finished_ = true;
  store_->finish(end_ns);
  tracker_.flush(end_ns, window_sink_);
}

std::size_t Monitor::alert_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return detector_.alerts().size();
}

std::vector<SegmentInfo> Monitor::segments() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return store_->segments();
}

StoreStats Monitor::store_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return store_->stats();
}

std::string Monitor::status_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const StoreStats& s = store_->stats();
  std::uint64_t compacted = 0;
  for (const SegmentInfo& seg : store_->segments())
    if (seg.compacted) ++compacted;
  JsonWriter w(JsonWriter::Layout::kBlock);
  w.begin_object()
      .field("dir", store_->dir())
      .field("records", s.records)
      .field("segments", store_->segments().size())
      .field("segments_sealed", s.segments_sealed)
      .field("segments_compacted", compacted)
      .field("rotations_forced", s.rotations_forced)
      .field("compactions", s.compactions)
      .field("compaction_failures", s.compaction_failures)
      .field("segments_deleted", s.segments_deleted)
      .field("full_res_bytes", s.full_res_bytes)
      .field("windows", detector_.windows_seen())
      .field("injected_intervals", injected_)
      .field("finished", finished_)
      .field("baseline_armed", detector_.armed())
      .field("alerts", detector_.alerts().size())
      .end_object();
  return std::move(w).take();
}

std::string Monitor::alerts_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter w(JsonWriter::Layout::kBlock);
  w.begin_object().key("alerts").begin_array();
  for (const Alert& a : detector_.alerts())
    w.begin_object(JsonWriter::Layout::kInline)
        .field("id", a.id)
        .field("metric", a.metric)
        .field("window_start_ns", a.start_ns)
        .field("window_end_ns", a.end_ns)
        .field("observed", JsonWriter::Fixed{a.observed, 6})
        .field("baseline_mean", JsonWriter::Fixed{a.baseline_mean, 6})
        .field("threshold", JsonWriter::Fixed{a.threshold, 6})
        .end_object();
  w.end_array().field("count", detector_.alerts().size()).end_object();
  return std::move(w).take();
}

}  // namespace osn::monitor
