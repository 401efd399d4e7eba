#include "export/ascii.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <vector>

#include "common/assert.hpp"
#include "common/format.hpp"

namespace osn::exporter {

char category_glyph(noise::NoiseCategory c) {
  switch (c) {
    case noise::NoiseCategory::kPeriodic: return 'T';
    case noise::NoiseCategory::kPageFault: return 'P';
    case noise::NoiseCategory::kScheduling: return 'S';
    case noise::NoiseCategory::kPreemption: return 'X';
    case noise::NoiseCategory::kIo: return 'I';
    case noise::NoiseCategory::kRequestedService: return 'r';
    case noise::NoiseCategory::kMaxCategory: break;
  }
  return '?';
}

std::string render_timeline(const noise::NoiseAnalysis& analysis, TimeNs t0, TimeNs t1,
                            std::size_t width, std::optional<noise::NoiseCategory> only) {
  OSN_ASSERT(t1 > t0 && width > 0);
  const double bucket_ns = static_cast<double>(t1 - t0) / static_cast<double>(width);
  const auto apps = analysis.model().app_pids();

  // bucket -> dominant category by accumulated charged time.
  std::map<Pid, std::vector<std::array<DurNs, 6>>> acc;
  for (Pid pid : apps) acc[pid].assign(width, {});

  for (const noise::Interval& iv : analysis.noise_intervals()) {
    auto it = acc.find(iv.task);
    if (it == acc.end()) continue;
    const noise::NoiseCategory cat = categorize(iv.kind);
    if (only && cat != *only) continue;
    if (iv.end <= t0 || iv.start >= t1) continue;
    const TimeNs lo = std::max(iv.start, t0);
    const TimeNs hi = std::min(iv.end, t1);
    auto b0 = static_cast<std::size_t>(static_cast<double>(lo - t0) / bucket_ns);
    auto b1 = static_cast<std::size_t>(static_cast<double>(hi - t0) / bucket_ns);
    b0 = std::min(b0, width - 1);
    b1 = std::min(b1, width - 1);
    for (std::size_t b = b0; b <= b1; ++b)
      it->second[b][static_cast<std::size_t>(cat)] += std::max<DurNs>(iv.self, 1);
  }

  std::string out;
  out += "time window: " + fmt_duration(t0) + " .. " + fmt_duration(t1) +
         "  ('.'=user  T=periodic  P=page fault  S=scheduling  X=preemption  I=I/O)\n";
  for (Pid pid : apps) {
    std::string row;
    for (std::size_t b = 0; b < width; ++b) {
      const auto& cats = acc[pid][b];
      std::size_t best = 6;
      DurNs best_v = 0;
      for (std::size_t c = 0; c < cats.size(); ++c)
        if (cats[c] > best_v) best_v = cats[c], best = c;
      row += best == 6 ? '.'
                       : category_glyph(static_cast<noise::NoiseCategory>(best));
    }
    out += pad_right(analysis.model().task_name(pid), 12) + " |" + row + "|\n";
  }
  return out;
}

std::string render_spikes(const noise::SyntheticChart& chart, DurNs min_noise,
                          std::size_t max_rows) {
  std::string out;
  std::size_t rows = 0;
  for (const noise::QuantumNoise& q : chart.quanta) {
    if (q.total <= min_noise) continue;
    if (++rows > max_rows) {
      out += "  ... (further quanta elided)\n";
      break;
    }
    out += "  t=" + pad_left(fmt_fixed(static_cast<double>(q.start) / 1e6, 3), 10) +
           " ms  noise=" +
           pad_left(fmt_fixed(static_cast<double>(q.total) / 1e3, 2), 8) + " us  : ";
    for (std::size_t i = 0; i < q.components.size(); ++i) {
      if (i != 0) out += " + ";
      out += std::string(noise::activity_name(q.components[i].kind)) + "(" +
             std::to_string(q.components[i].duration) + ")";
    }
    out += "\n";
  }
  if (rows == 0) out += "  (no quanta above threshold)\n";
  return out;
}

std::string render_breakdown_row(const std::string& label,
                                 const noise::CategoryBreakdown& breakdown,
                                 std::size_t bar_width) {
  DurNs total = 0;
  for (std::size_t c = 0; c < breakdown.size(); ++c) {
    if (c == static_cast<std::size_t>(noise::NoiseCategory::kRequestedService)) continue;
    total += breakdown[c];
  }
  std::string out = pad_right(label, 8) + " |";
  if (total == 0) return out + std::string(bar_width, ' ') + "| (no noise)\n";
  std::size_t used = 0;
  for (std::size_t c = 0; c < breakdown.size(); ++c) {
    if (c == static_cast<std::size_t>(noise::NoiseCategory::kRequestedService)) continue;
    const auto cells = static_cast<std::size_t>(static_cast<double>(breakdown[c]) /
                                                static_cast<double>(total) *
                                                static_cast<double>(bar_width));
    out += std::string(cells, category_glyph(static_cast<noise::NoiseCategory>(c)));
    used += cells;
  }
  if (used < bar_width) out += std::string(bar_width - used, ' ');
  out += "|";
  for (std::size_t c = 0; c < breakdown.size(); ++c) {
    if (c == static_cast<std::size_t>(noise::NoiseCategory::kRequestedService)) continue;
    // Appended piecewise: gcc 12's -O3 -Wrestrict pass false-positives on
    // the temporary chain "literal" + std::string + ... (PR 105651).
    out += ' ';
    out += category_name(static_cast<noise::NoiseCategory>(c));
    out += '=';
    out += fmt_percent(static_cast<double>(breakdown[c]) / static_cast<double>(total));
  }
  return out + "\n";
}

}  // namespace osn::exporter
