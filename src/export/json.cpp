#include "export/json.hpp"

#include <cstdio>
#include <string_view>

#include "common/format.hpp"

namespace osn::exporter {

namespace {

/// Length of the well-formed UTF-8 sequence starting at s[i], or 0 when the
/// bytes are not valid UTF-8 (truncated, overlong, surrogate, > U+10FFFF).
/// Table-driven per RFC 3629's grammar: the lead byte constrains the first
/// continuation byte's range, not just its 10xxxxxx shape.
std::size_t utf8_sequence_len(const std::string& s, std::size_t i) {
  const auto b = [&](std::size_t k) -> unsigned {
    return static_cast<unsigned char>(s[i + k]);
  };
  const unsigned b0 = b(0);
  std::size_t len;
  unsigned lo1 = 0x80, hi1 = 0xBF;  // allowed range of the first continuation
  if (b0 <= 0x7F) return 1;
  if (b0 >= 0xC2 && b0 <= 0xDF) {
    len = 2;
  } else if (b0 == 0xE0) {
    len = 3;
    lo1 = 0xA0;  // excludes overlong encodings of < U+0800
  } else if (b0 == 0xED) {
    len = 3;
    hi1 = 0x9F;  // excludes the UTF-16 surrogate range U+D800..DFFF
  } else if (b0 >= 0xE1 && b0 <= 0xEF) {
    len = 3;
  } else if (b0 == 0xF0) {
    len = 4;
    lo1 = 0x90;  // excludes overlong encodings of < U+10000
  } else if (b0 >= 0xF1 && b0 <= 0xF3) {
    len = 4;
  } else if (b0 == 0xF4) {
    len = 4;
    hi1 = 0x8F;  // excludes code points > U+10FFFF
  } else {
    return 0;  // lone continuation byte, or 0xC0/0xC1/0xF5..0xFF
  }
  if (i + len > s.size()) return 0;
  if (b(1) < lo1 || b(1) > hi1) return 0;
  for (std::size_t k = 2; k < len; ++k)
    if (b(k) < 0x80 || b(k) > 0xBF) return 0;
  return len;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  std::size_t i = 0;
  while (i < s.size()) {
    const char ch = s[i];
    switch (ch) {
      case '"': out += "\\\""; ++i; continue;
      case '\\': out += "\\\\"; ++i; continue;
      case '\b': out += "\\b"; ++i; continue;
      case '\f': out += "\\f"; ++i; continue;
      case '\n': out += "\\n"; ++i; continue;
      case '\r': out += "\\r"; ++i; continue;
      case '\t': out += "\\t"; ++i; continue;
      default: break;
    }
    const auto byte = static_cast<unsigned char>(ch);
    if (byte < 0x20) {
      // RFC 8259 §7: control characters MUST be escaped.
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
      out += buf;
      ++i;
      continue;
    }
    if (byte < 0x80) {
      out += ch;
      ++i;
      continue;
    }
    // Non-ASCII: pass well-formed UTF-8 through verbatim; anything else
    // (hostile task/file names are arbitrary bytes) would make the whole
    // document invalid JSON, so escape each bad byte as \u00xx — valid
    // output that still shows the exact byte value.
    const std::size_t len = utf8_sequence_len(s, i);
    if (len > 0) {
      out.append(s, i, len);
      i += len;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
      out += buf;
      ++i;
    }
  }
  return out;
}

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
  std::string out = "{\n";
  out += "  \"workload\": \"" + json_escape(data.workload) + "\",\n";
  out += "  \"duration_ns\": " + std::to_string(data.duration_ns) + ",\n";
  out += "  \"cpus\": " + std::to_string(data.cpus) + ",\n";
  out += "  \"tick_period_ns\": " + std::to_string(data.tick_period_ns) + ",\n";
  out += "  \"events\": " + std::to_string(data.events) + ",\n";
  out += "  \"noise_intervals\": " + std::to_string(data.noise_intervals) + ",\n";

  out += "  \"activities\": {\n";
  bool first = true;
  for (std::size_t k = 0; k < data.activities.size(); ++k) {
    const auto kind = static_cast<noise::ActivityKind>(k);
    const noise::EventStats& s = data.activities[k];
    if (s.count == 0) continue;
    if (!first) out += ",\n";
    first = false;
    out += "    \"" + std::string(noise::activity_name(kind)) + "\": {";
    out += "\"count\": " + std::to_string(s.count);
    out += ", \"freq_ev_per_sec\": " + fmt_fixed(s.freq_ev_per_sec, 3);
    out += ", \"avg_ns\": " + fmt_fixed(s.avg_ns, 1);
    out += ", \"max_ns\": " + std::to_string(s.max_ns);
    out += ", \"min_ns\": " + std::to_string(s.min_ns);
    out += "}";
  }
  out += "\n  },\n";

  out += "  \"ranks\": [\n";
  for (std::size_t i = 0; i < data.ranks.size(); ++i) {
    const SummaryData::Rank& rank = data.ranks[i];
    out += "    {\"pid\": " + std::to_string(rank.pid) + ", \"name\": \"" +
           json_escape(rank.name) + "\", \"total_noise_ns\": " +
           std::to_string(rank.total_noise_ns) + ", \"by_category\": {";
    bool first_cat = true;
    for (std::size_t c = 0; c < rank.by_category.size(); ++c) {
      const auto cat = static_cast<noise::NoiseCategory>(c);
      if (cat == noise::NoiseCategory::kRequestedService ||
          cat == noise::NoiseCategory::kMaxCategory)
        continue;
      if (!first_cat) out += ", ";
      first_cat = false;
      // Appended piecewise: gcc 12's -O3 -Wrestrict pass false-positives on
      // the temporary chain "literal" + std::string + ... (PR 105651).
      out += '"';
      out += noise::category_name(cat);
      out += "\": ";
      out += std::to_string(rank.by_category[c]);
    }
    out += "}}";
    out += i + 1 < data.ranks.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string summary_json(const noise::NoiseAnalysis& analysis) {
  return render_summary(summary_data(analysis));
}

std::string chart_json(const noise::SyntheticChart& chart, const std::string& task) {
  std::string out = "{\n";
  out += "  \"task\": \"" + json_escape(task) + "\",\n";
  out += "  \"origin_ns\": " + std::to_string(chart.origin) + ",\n";
  out += "  \"quantum_ns\": " + std::to_string(chart.quantum) + ",\n";
  out += "  \"quanta\": [\n";
  for (std::size_t i = 0; i < chart.quanta.size(); ++i) {
    const noise::QuantumNoise& q = chart.quanta[i];
    out += "    {\"start_ns\": " + std::to_string(q.start);
    out += ", \"total_ns\": " + std::to_string(q.total);
    out += ", \"components\": [";
    for (std::size_t c = 0; c < q.components.size(); ++c) {
      const noise::ChartComponent& comp = q.components[c];
      if (c > 0) out += ", ";
      out += '{';
      out += "\"activity\": \"";
      out += noise::activity_name(comp.kind);
      out += "\", \"duration_ns\": ";
      out += std::to_string(comp.duration);
      out += '}';
    }
    out += "]}";
    out += i + 1 < chart.quanta.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string timeseries_json(const noise::ActivitySeries& series) {
  const std::string_view name = series.kind == noise::ActivityKind::kMaxKind
                                    ? std::string_view("all")
                                    : noise::activity_name(series.kind);
  std::string out = "{\n";
  out += "  \"activity\": \"";
  out += name;
  out += "\",\n";
  out += "  \"origin_ns\": " + std::to_string(series.origin) + ",\n";
  out += "  \"quantum_ns\": " + std::to_string(series.quantum) + ",\n";
  out += "  \"quanta\": [\n";
  for (std::size_t i = 0; i < series.totals.size(); ++i) {
    out += "    {\"start_ns\": " +
           std::to_string(series.origin + static_cast<TimeNs>(i) * series.quantum);
    out += ", \"total_ns\": " + std::to_string(series.totals[i]);
    out += ", \"count\": " + std::to_string(series.counts[i]);
    out += '}';
    out += i + 1 < series.totals.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string topk_json(const std::vector<noise::CpuNoise>& cpus, std::size_t k) {
  std::string out = "{\n";
  out += "  \"k\": " + std::to_string(k) + ",\n";
  out += "  \"cpus\": [\n";
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    out += "    {\"cpu\": " + std::to_string(cpus[i].cpu);
    out += ", \"total_noise_ns\": " + std::to_string(cpus[i].total_ns);
    out += ", \"intervals\": " + std::to_string(cpus[i].intervals);
    out += '}';
    out += i + 1 < cpus.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace osn::exporter
