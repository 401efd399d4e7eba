// The query plan: one canonical description of "filter, window, group,
// aggregate" over a trace.
//
// The paper observes that every analysis view is "simply applying different
// filters" over one interval stream (§III-A) — yet the repo grew three
// hand-rolled copies of that logic (CLI subcommands, serve ops, streaming
// stats), each with its own ms→ns conversion, fast-path gate and cache key.
// A Plan is the single vocabulary those front ends now share, and every
// front end builds it the same way: serve::plan_from_request, from a wire
// request in osn-served and from its flags decoded into the same Request in
// osn-analyze (only the analysis options, the ablation switches and --jobs,
// are set after it). A Plan holds:
//
//   predicate   — optional cpu restriction (records of one CPU only) and,
//                 for timeseries, an activity-kind filter;
//   window      — [t0, t1) in trace nanoseconds; (0, kTimeInfinity) means
//                 the whole trace;
//   group-by    — the quantum grid (chart/timeseries) or the cpu axis (topk);
//   aggregate   — which document to render (summary, chart, timeseries,
//                 topk), plus the analysis ablation switches.
//
// The executor (engine.hpp) decides *how* to answer — index-only
// pre-aggregates, chunk-pruned decode, cached models — from the plan alone;
// front ends never pick an execution strategy again.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/types.hpp"
#include "noise/analysis.hpp"
#include "noise/interval.hpp"

namespace osn::query {

/// The document a plan produces. A windowed summary is not a separate
/// aggregate: it is kSummary with a non-trivial window.
enum class Aggregate : std::uint8_t {
  kSummary,     ///< activity stats + per-rank breakdown (export --json)
  kChart,       ///< synthetic noise chart for one task (Fig 1b)
  kTimeseries,  ///< one activity's charged noise on a quantum grid
  kTopK,        ///< noisiest CPUs by total charged noise
};

const char* aggregate_name(Aggregate a);

struct Plan {
  Aggregate aggregate = Aggregate::kSummary;

  /// Time window [t0, t1) in trace ns. The default covers everything; the
  /// engine canonicalizes any window provably covering the whole trace back
  /// to this form so it shares cache entries (and the index-only fast path)
  /// with the unwindowed plan.
  TimeNs t0 = 0;
  TimeNs t1 = kTimeInfinity;

  /// Restrict input records to one CPU: every other per-CPU stream becomes
  /// empty, metadata is unchanged. Chunks whose cpu_mask excludes the CPU
  /// are pruned from the decode entirely.
  std::optional<CpuId> cpu;

  /// Timeseries activity filter; kMaxKind means every activity.
  noise::ActivityKind activity = noise::ActivityKind::kMaxKind;

  /// Chart task (nullopt: first application rank).
  std::optional<Pid> task;

  /// Chart / timeseries bucket width in ns (must be > 0 for those plans).
  DurNs quantum = kNsPerMs;

  /// TopK row count (must be > 0 for kTopK plans).
  std::size_t k = 5;

  /// Analysis ablation switches + worker count. jobs does not affect
  /// results (the analyzer is bit-deterministic at any worker count), so
  /// it is excluded from the fingerprint.
  noise::AnalysisOptions options;
};

/// Converts milliseconds (as the protocol's double) to nanoseconds.
/// Rejects non-finite and negative inputs with nullopt; saturates to
/// kTimeInfinity when the product exceeds the TimeNs range (the cast the
/// CLI and server both used to do raw is undefined behaviour there). For
/// in-range values the result is the exact historical static_cast, so
/// existing windows stay byte-identical.
std::optional<TimeNs> ns_from_ms(double ms);

/// Applies a [from_ms, to_ms) window to `plan` through ns_from_ms. False
/// (plan untouched) when the pair is rejected: non-finite, negative, or
/// to <= from after conversion.
bool window_from_ms(Plan& plan, double from_ms, double to_ms);

/// A plan that cannot be executed. kBadPlan maps to bad_request at the
/// protocol layer and usage errors (exit 2) in the CLI; kTraceMismatch to
/// trace_error (the plan is well-formed but this trace cannot satisfy it).
class PlanError : public std::runtime_error {
 public:
  enum class Kind { kBadPlan, kTraceMismatch };
  PlanError(Kind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// The most buckets a chart or timeseries grid may have: 2^20. Far above
/// any grid in use (a 6 s report at 1 ms has 6,000), while a 1 us quantum
/// over seconds of trace would size gigabytes of buckets and JSON.
inline constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;

/// Bucket count for a quantum grid over `duration`: duration / quantum,
/// clamped to at least one bucket. The clamp pins the edge cases that used
/// to hide in each caller: a zero-duration (single-event) trace, an empty
/// window, and a quantum longer than the trace all yield exactly one
/// bucket. A grid of more than kMaxBuckets throws PlanError kBadPlan, before
/// anything is sized from it. quantum must be > 0.
std::size_t chart_buckets(DurNs duration, DurNs quantum);

/// Canonical plan fingerprint: the result-cache key body (the trace's
/// identity stamp is prepended by the engine). Two plans that must produce
/// the same bytes fingerprint equal; fields irrelevant to the aggregate
/// (e.g. a chart's activity filter) are excluded, as is options.jobs.
std::string fingerprint(const Plan& plan);

}  // namespace osn::query
