// JSON summary export — a machine-readable digest of one analysis
// (metadata, per-activity statistics, per-rank category breakdown), for
// dashboards and regression tooling that should not parse tables.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "noise/analysis.hpp"
#include "noise/chart.hpp"

namespace osn::exporter {

/// Everything the summary document contains, decoupled from how it was
/// computed: summary_json fills it from a NoiseAnalysis (record decode),
/// index_summary_json (index_summary.hpp) from a file's pre-aggregate block.
/// Both feed render_summary, so equal data is byte-identical output — the
/// equivalence the index-only fast path is tested against.
struct SummaryData {
  std::string workload;
  std::uint64_t duration_ns = 0;
  std::uint32_t cpus = 0;
  std::uint64_t tick_period_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t noise_intervals = 0;
  std::array<noise::EventStats, static_cast<std::size_t>(noise::ActivityKind::kMaxKind)>
      activities{};
  struct Rank {
    Pid pid = 0;
    std::string name;
    std::uint64_t total_noise_ns = 0;
    noise::CategoryBreakdown by_category{};
  };
  std::vector<Rank> ranks;  ///< application tasks, sorted by pid
};

/// Extracts the summary from a completed analysis.
SummaryData summary_data(const noise::NoiseAnalysis& analysis);

/// Renders the summary document (deterministic bytes for equal data).
std::string render_summary(const SummaryData& data);

/// Serializes the analysis summary as a self-contained JSON document.
/// Equivalent to render_summary(summary_data(analysis)).
std::string summary_json(const noise::NoiseAnalysis& analysis);

/// Serializes a synthetic noise chart (per-quantum totals and their activity
/// composition) as a JSON document; `task` names the charted rank.
std::string chart_json(const noise::SyntheticChart& chart, const std::string& task);

/// Serializes a per-activity noise timeseries (the `timeseries` query op).
/// The activity field is "all" when the series covers every kind.
std::string timeseries_json(const noise::ActivitySeries& series);

/// Serializes the noisiest-CPU ranking (the `topk` query op). `k` is the
/// requested row count; `cpus` may carry fewer when the trace is quieter.
std::string topk_json(const std::vector<noise::CpuNoise>& cpus, std::size_t k);

/// RFC 8259 string escaping: quotes, backslashes and control characters are
/// escaped, well-formed UTF-8 passes through verbatim, and ill-formed bytes
/// (hostile names) are escaped as \u00xx so the document stays valid JSON.
std::string json_escape(const std::string& s);

}  // namespace osn::exporter
