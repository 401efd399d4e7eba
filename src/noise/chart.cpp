#include "noise/chart.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace osn::noise {

std::vector<double> SyntheticChart::totals() const {
  std::vector<double> out;
  out.reserve(quanta.size());
  for (const QuantumNoise& q : quanta) out.push_back(static_cast<double>(q.total));
  return out;
}

SyntheticChart build_chart(const NoiseAnalysis& analysis, Pid task, TimeNs origin,
                           DurNs quantum, std::size_t n_quanta) {
  OSN_ASSERT(quantum > 0 && n_quanta > 0);
  SyntheticChart chart;
  chart.origin = origin;
  chart.quantum = quantum;
  chart.quanta.resize(n_quanta);
  for (std::size_t i = 0; i < n_quanta; ++i)
    chart.quanta[i].start = origin + static_cast<TimeNs>(i) * quantum;
  const TimeNs chart_end = origin + static_cast<TimeNs>(n_quanta) * quantum;

  for (const Interval& iv : analysis.noise_intervals()) {
    if (iv.task != task) continue;
    if (iv.end <= origin || iv.start >= chart_end) continue;
    const DurNs charged = analysis.charged(iv);
    if (charged == 0) continue;
    // Distribute the charged time uniformly over [start, end) and clip to
    // the quantum grid.
    const DurNs span = std::max<DurNs>(iv.inclusive(), 1);
    TimeNs lo = std::max(iv.start, origin);
    const TimeNs hi = std::min(iv.end, chart_end);
    while (lo < hi) {
      const std::size_t qi = static_cast<std::size_t>((lo - origin) / quantum);
      const TimeNs q_end = chart.quanta[qi].start + quantum;
      const TimeNs piece_end = std::min(hi, q_end);
      const auto piece =
          static_cast<DurNs>(static_cast<double>(charged) *
                             (static_cast<double>(piece_end - lo) / static_cast<double>(span)));
      if (piece > 0) {
        chart.quanta[qi].total += piece;
        chart.quanta[qi].components.push_back(ChartComponent{iv.kind, iv.detail, piece});
      }
      lo = piece_end;
    }
  }
  return chart;
}

ActivitySeries build_activity_series(const NoiseAnalysis& analysis, ActivityKind kind,
                                     TimeNs origin, DurNs quantum, std::size_t n_quanta) {
  OSN_ASSERT(quantum > 0 && n_quanta > 0);
  ActivitySeries series;
  series.kind = kind;
  series.origin = origin;
  series.quantum = quantum;
  series.totals.assign(n_quanta, 0);
  series.counts.assign(n_quanta, 0);
  const TimeNs series_end = origin + static_cast<TimeNs>(n_quanta) * quantum;

  for (const Interval& iv : analysis.noise_intervals()) {
    if (kind != ActivityKind::kMaxKind && iv.kind != kind) continue;
    if (iv.end <= origin || iv.start >= series_end) continue;
    const DurNs charged = analysis.charged(iv);
    if (charged == 0) continue;
    // Same proportional split as build_chart: charged time distributed
    // uniformly over [start, end) and clipped to the quantum grid.
    const DurNs span = std::max<DurNs>(iv.inclusive(), 1);
    TimeNs lo = std::max(iv.start, origin);
    const TimeNs hi = std::min(iv.end, series_end);
    series.counts[static_cast<std::size_t>((lo - origin) / quantum)] += 1;
    while (lo < hi) {
      const std::size_t qi = static_cast<std::size_t>((lo - origin) / quantum);
      const TimeNs q_end = origin + static_cast<TimeNs>(qi + 1) * quantum;
      const TimeNs piece_end = std::min(hi, q_end);
      const auto piece =
          static_cast<DurNs>(static_cast<double>(charged) *
                             (static_cast<double>(piece_end - lo) / static_cast<double>(span)));
      series.totals[qi] += piece;
      lo = piece_end;
    }
  }
  return series;
}

std::vector<CpuNoise> top_noisy_cpus(const NoiseAnalysis& analysis, std::size_t k) {
  std::vector<CpuNoise> per_cpu(analysis.model().cpu_count());
  for (const Interval& iv : analysis.noise_intervals()) {
    if (iv.cpu >= per_cpu.size()) per_cpu.resize(iv.cpu + 1u);
    per_cpu[iv.cpu].total_ns += analysis.charged(iv);
    per_cpu[iv.cpu].intervals += 1;
  }
  for (std::size_t c = 0; c < per_cpu.size(); ++c) per_cpu[c].cpu = static_cast<CpuId>(c);
  std::stable_sort(per_cpu.begin(), per_cpu.end(), [](const CpuNoise& a, const CpuNoise& b) {
    if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
    return a.cpu < b.cpu;
  });
  while (!per_cpu.empty() && per_cpu.back().total_ns == 0) per_cpu.pop_back();
  if (per_cpu.size() > k) per_cpu.resize(k);
  return per_cpu;
}

std::vector<Interruption> group_interruptions(const NoiseAnalysis& analysis, Pid task,
                                              DurNs max_gap) {
  std::vector<Interruption> out;
  for (const Interval& iv : analysis.noise_intervals()) {
    if (iv.task != task) continue;
    if (!out.empty() && iv.start <= out.back().end + max_gap) {
      Interruption& cur = out.back();
      cur.end = std::max(cur.end, iv.end);
      cur.total += analysis.charged(iv);
      cur.parts.push_back(iv);
      continue;
    }
    Interruption in;
    in.start = iv.start;
    in.end = iv.end;
    in.total = analysis.charged(iv);
    in.parts.push_back(iv);
    out.push_back(std::move(in));
  }
  return out;
}

std::string describe_interruption(const Interruption& in) {
  std::string out;
  for (std::size_t i = 0; i < in.parts.size(); ++i) {
    if (i != 0) out += " + ";
    out += std::string(activity_name(in.parts[i].kind)) + "(" +
           std::to_string(in.parts[i].self) + ")";
  }
  return out;
}

}  // namespace osn::noise
