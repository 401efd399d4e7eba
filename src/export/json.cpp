#include "export/json.hpp"

#include <string_view>

#include "common/json_writer.hpp"

namespace osn::exporter {

using Layout = JsonWriter::Layout;

SummaryData summary_data(const noise::NoiseAnalysis& analysis) {
  const trace::TraceModel& model = analysis.model();
  SummaryData data;
  data.workload = model.meta().workload;
  data.duration_ns = model.duration();
  data.cpus = model.cpu_count();
  data.tick_period_ns = model.meta().tick_period_ns;
  data.events = model.total_events();
  data.noise_intervals = analysis.noise_intervals().size();
  for (std::size_t k = 0; k < data.activities.size(); ++k)
    data.activities[k] = analysis.activity_stats(static_cast<noise::ActivityKind>(k));
  const std::vector<Pid> pids = model.app_pids();
  for (std::size_t i = 0; i < pids.size(); ++i) {
    SummaryData::Rank rank;
    rank.pid = pids[i];
    rank.name = model.task_name(pids[i]);
    rank.by_category = analysis.rank_breakdowns()[i];
    rank.total_noise_ns = noise::noise_total(rank.by_category);
    data.ranks.push_back(std::move(rank));
  }
  return data;
}

std::string render_summary(const SummaryData& data) {
  JsonWriter w(Layout::kBlock);
  w.begin_object()
      .field("workload", data.workload)
      .field("duration_ns", data.duration_ns)
      .field("cpus", data.cpus)
      .field("tick_period_ns", data.tick_period_ns)
      .field("events", data.events)
      .field("noise_intervals", data.noise_intervals);

  w.key("activities").begin_object();
  for (std::size_t k = 0; k < data.activities.size(); ++k) {
    const noise::EventStats& s = data.activities[k];
    if (s.count == 0) continue;
    w.key(noise::activity_name(static_cast<noise::ActivityKind>(k)))
        .begin_object(Layout::kInline)
        .field("count", s.count)
        .field("freq_ev_per_sec", JsonWriter::Fixed{s.freq_ev_per_sec, 3})
        .field("avg_ns", JsonWriter::Fixed{s.avg_ns, 1})
        .field("max_ns", s.max_ns)
        .field("min_ns", s.min_ns)
        .end_object();
  }
  w.end_object();

  w.key("ranks").begin_array();
  for (const SummaryData::Rank& rank : data.ranks) {
    w.begin_object(Layout::kInline)
        .field("pid", rank.pid)
        .field("name", rank.name)
        .field("total_noise_ns", rank.total_noise_ns);
    w.key("by_category").begin_object();
    for (std::size_t c = 0; c < rank.by_category.size(); ++c) {
      const auto cat = static_cast<noise::NoiseCategory>(c);
      if (cat == noise::NoiseCategory::kRequestedService ||
          cat == noise::NoiseCategory::kMaxCategory)
        continue;
      w.field(noise::category_name(cat), rank.by_category[c]);
    }
    w.end_object().end_object();
  }
  w.end_array().end_object();
  return std::move(w).take();
}

std::string summary_json(const noise::NoiseAnalysis& analysis) {
  return render_summary(summary_data(analysis));
}

std::string chart_json(const noise::SyntheticChart& chart, const std::string& task) {
  JsonWriter w(Layout::kBlock);
  w.begin_object()
      .field("task", task)
      .field("origin_ns", chart.origin)
      .field("quantum_ns", chart.quantum);
  w.key("quanta").begin_array();
  for (const noise::QuantumNoise& q : chart.quanta) {
    w.begin_object(Layout::kInline).field("start_ns", q.start).field("total_ns", q.total);
    w.key("components").begin_array();
    for (const noise::ChartComponent& comp : q.components)
      w.begin_object()
          .field("activity", noise::activity_name(comp.kind))
          .field("duration_ns", comp.duration)
          .end_object();
    w.end_array().end_object();
  }
  w.end_array().end_object();
  return std::move(w).take();
}

std::string timeseries_json(const noise::ActivitySeries& series) {
  JsonWriter w(Layout::kBlock);
  w.begin_object()
      .field("activity", series.kind == noise::ActivityKind::kMaxKind
                             ? std::string_view("all")
                             : noise::activity_name(series.kind))
      .field("origin_ns", series.origin)
      .field("quantum_ns", series.quantum);
  w.key("quanta").begin_array();
  for (std::size_t i = 0; i < series.totals.size(); ++i)
    w.begin_object(Layout::kInline)
        .field("start_ns", series.origin + static_cast<TimeNs>(i) * series.quantum)
        .field("total_ns", series.totals[i])
        .field("count", series.counts[i])
        .end_object();
  w.end_array().end_object();
  return std::move(w).take();
}

std::string topk_json(const std::vector<noise::CpuNoise>& cpus, std::size_t k) {
  JsonWriter w(Layout::kBlock);
  w.begin_object().field("k", k);
  w.key("cpus").begin_array();
  for (const noise::CpuNoise& c : cpus)
    w.begin_object(Layout::kInline)
        .field("cpu", c.cpu)
        .field("total_noise_ns", c.total_ns)
        .field("intervals", c.intervals)
        .end_object();
  w.end_array().end_object();
  return std::move(w).take();
}

}  // namespace osn::exporter
