// Index-only summary: the `summary` document computed from a v3 file's
// pre-aggregate block (chunk_aggregate.hpp) without decoding a single event
// record — the read path EXPERIMENTS.md shows dominated by decode collapses
// to a merge of a few hundred integer accumulators.
//
// The fast path answers exactly the default-options analysis
// (resolve_nesting on, runnable filter on, requested service excluded) over
// the full trace span; anything else (ablation options, time windows) still
// goes through record decode. Callers therefore treat nullopt as "take the
// slow path", never as an error: files written without an aggregator,
// truncated or index-recovered files, damaged aggregate blocks, and blocks
// carrying out-of-range class/category ids all fall back.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "export/json.hpp"
#include "trace/osnt_reader.hpp"

namespace osn::exporter {

/// Merges the file's pre-aggregate block into the summary data (the
/// extraction half, exposed so tests can compare against
/// summary_data(NoiseAnalysis) field by field). nullopt when the file cannot
/// take the fast path.
std::optional<SummaryData> index_summary_data(const trace::OsntReader& reader);

/// The merge half over an explicit aggregate block + metadata, for callers
/// that assembled the summary themselves — the rolling segment store folds
/// many segments' blocks into one IndexSummary and renders it through here.
/// nullopt when a blob carries out-of-range class/category/cpu ids (the
/// "not written by our aggregator" refusals).
std::optional<SummaryData> index_summary_data(const trace::IndexSummary& summary,
                                              const trace::TraceMeta& meta,
                                              const std::map<Pid, trace::TaskInfo>& tasks);

/// The full fast path: render_summary over index_summary_data. For a file
/// whose aggregates were produced by noise::IndexAggregator, the returned
/// document is byte-identical to summary_json of a default-options analysis
/// over the decoded trace.
std::optional<std::string> index_summary_json(const trace::OsntReader& reader);

}  // namespace osn::exporter
