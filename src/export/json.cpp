#include "export/json.hpp"

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "common/json_writer.hpp"

namespace osn::exporter {

using Layout = JsonWriter::Layout;

namespace {

/// The widest number a document row holds.
constexpr std::uint64_t kWidest = std::numeric_limits<std::uint64_t>::max();
/// An escaped string is at most six bytes per input byte (\u00xx).
constexpr std::size_t kEscapeWidth = 6;

/// The activity with the longest name, for the widest sample rows.
noise::ActivityKind widest_activity() {
  auto widest = noise::ActivityKind::kTimerIrq;
  for (std::size_t k = 0; k < static_cast<std::size_t>(noise::ActivityKind::kMaxKind); ++k) {
    const auto kind = static_cast<noise::ActivityKind>(k);
    if (noise::activity_name(kind).size() > noise::activity_name(widest).size()) widest = kind;
  }
  return widest;
}

/// A row document's size bound, measured on samples of the widest values:
/// `base` holds the frame and one row, and each further row (and each item
/// inside a row) adds at most `row` (`item`) bytes.
struct RowBound {
  std::size_t base = 0;
  std::size_t row = 0;
  std::size_t item = 0;
};

void write_chart(JsonWriter& w, const noise::SyntheticChart& chart, std::string_view task) {
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
}

void write_timeseries(JsonWriter& w, const noise::ActivitySeries& series) {
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
}

/// Chart rows are quanta, their items components; the task name is extra.
const RowBound& chart_bound() {
  static const RowBound bound = [] {
    const auto size = [](std::vector<std::size_t> components_per_row) {
      noise::SyntheticChart chart{kWidest, kWidest, {}};
      for (const std::size_t n : components_per_row)
        chart.quanta.push_back(noise::QuantumNoise{
            kWidest, kWidest,
            std::vector<noise::ChartComponent>(
                n, noise::ChartComponent{widest_activity(), 0, kWidest})});
      JsonWriter w(Layout::kBlock);
      write_chart(w, chart, "");
      return std::move(w).take().size();
    };
    const std::size_t base = size({0});
    return RowBound{base, size({0, 0}) - base, size({2}) - size({1})};
  }();
  return bound;
}

const RowBound& timeseries_bound() {
  static const RowBound bound = [] {
    const auto size = [](std::size_t rows) {
      JsonWriter w(Layout::kBlock);
      write_timeseries(w, noise::ActivitySeries{widest_activity(), kWidest, 0,
                                                std::vector<DurNs>(rows, kWidest),
                                                std::vector<std::uint64_t>(rows, kWidest)});
      return std::move(w).take().size();
    };
    const std::size_t base = size(1);
    return RowBound{base, size(2) - base, 0};
  }();
  return bound;
}

}  // namespace

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
    w.dynamic_key(noise::activity_name(static_cast<noise::ActivityKind>(k)))
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
      w.dynamic_key(noise::category_name(cat)).value(rank.by_category[c]);
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
  std::size_t components = 0;
  for (const noise::QuantumNoise& q : chart.quanta) components += q.components.size();
  const RowBound& bound = chart_bound();
  JsonWriter w(Layout::kBlock);
  w.reserve(bound.base + kEscapeWidth * task.size() + bound.row * chart.quanta.size() +
            bound.item * components);
  write_chart(w, chart, task);
  return std::move(w).take();
}

std::string timeseries_json(const noise::ActivitySeries& series) {
  const RowBound& bound = timeseries_bound();
  JsonWriter w(Layout::kBlock);
  w.reserve(bound.base + bound.row * series.totals.size());
  write_timeseries(w, series);
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
