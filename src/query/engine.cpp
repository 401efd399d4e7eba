#include "query/engine.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "export/index_summary.hpp"
#include "export/json.hpp"
#include "noise/chart.hpp"

namespace osn::query {

namespace {

/// The chunk-index mask bit for a cpu: bit c for c < 63, bit 63 for "any
/// cpu >= 63" (the index cannot distinguish those, so they share a bit and
/// pruning stays conservative for wide nodes).
std::uint64_t cpu_mask_bit(CpuId cpu) {
  return 1ull << std::min<unsigned>(cpu, 63);
}

}  // namespace

/// The index-only fast path answers exactly one shape of plan: a summary of
/// the full trace span under default analysis options with no predicates —
/// pre-aggregates attribute intervals to the chunk where they close, so
/// they cannot be sliced by time or cpu, and the ablation switches change
/// what counts as noise.
bool fast_path_eligible(const Plan& plan) {
  return plan.aggregate == Aggregate::kSummary && plan.t0 == 0 &&
         plan.t1 == kTimeInfinity && !plan.cpu.has_value() &&
         plan.options.resolve_nesting && plan.options.runnable_filter &&
         !plan.options.include_requested_service;
}

void validate_plan(const Plan& plan) {
  if (plan.t1 <= plan.t0)
    throw PlanError(PlanError::Kind::kBadPlan, "window requires t0 < t1");
  if ((plan.aggregate == Aggregate::kChart || plan.aggregate == Aggregate::kTimeseries) &&
      plan.quantum == 0)
    throw PlanError(PlanError::Kind::kBadPlan, "quantum out of range");
  if (plan.aggregate == Aggregate::kTopK && plan.k == 0)
    throw PlanError(PlanError::Kind::kBadPlan, "k out of range");
}

Pid chart_task(const trace::TraceModel& model, std::optional<Pid> task) {
  const auto apps = model.app_pids();
  if (apps.empty())
    throw PlanError(PlanError::Kind::kTraceMismatch, "trace has no application tasks");
  const Pid pid = task.value_or(apps.front());
  if (!model.is_app(pid))
    throw PlanError(PlanError::Kind::kBadPlan,
                    "pid " + std::to_string(pid) + " is not an application task");
  return pid;
}

namespace {

/// The filter step: the window clip (trace::window_of), then the cpu
/// restriction (trace::restrict_to_cpu). nullopt when the plan has neither:
/// the base model is then the filtered model, and nothing is copied.
std::optional<trace::TraceModel> filter_model(const trace::TraceModel& base,
                                              const Plan& plan) {
  std::optional<trace::TraceModel> local;
  if (!(plan.t0 == 0 && plan.t1 == kTimeInfinity))
    local.emplace(trace::window_of(base, plan.t0, plan.t1));
  if (plan.cpu.has_value())
    local.emplace(trace::restrict_to_cpu(local.has_value() ? *local : base, *plan.cpu));
  return local;
}

/// The render step: analysis and aggregate rendering of a filtered model.
std::string render_model(const trace::TraceModel& model, const Plan& plan,
                         const Checkpoint& checkpoint) {
  // The grid is bounded before the analysis runs or any bucket is sized.
  const bool gridded =
      plan.aggregate == Aggregate::kChart || plan.aggregate == Aggregate::kTimeseries;
  const std::size_t buckets = gridded ? chart_buckets(model.duration(), plan.quantum) : 0;

  if (checkpoint) checkpoint("before analysis");
  const noise::NoiseAnalysis analysis(model, plan.options);

  switch (plan.aggregate) {
    case Aggregate::kSummary:
      return exporter::summary_json(analysis);
    case Aggregate::kChart: {
      const Pid pid = chart_task(model, plan.task);
      const noise::SyntheticChart chart =
          noise::build_chart(analysis, pid, 0, plan.quantum, buckets);
      return exporter::chart_json(chart, model.task_name(pid));
    }
    case Aggregate::kTimeseries: {
      const noise::ActivitySeries series = noise::build_activity_series(
          analysis, plan.activity, model.meta().start_ns, plan.quantum, buckets);
      return exporter::timeseries_json(series);
    }
    case Aggregate::kTopK:
      return exporter::topk_json(noise::top_noisy_cpus(analysis, plan.k), plan.k);
  }
  throw PlanError(PlanError::Kind::kBadPlan, "unknown aggregate");
}

}  // namespace

std::string render_plan(const trace::TraceModel& base, const Plan& plan,
                        const Checkpoint& checkpoint) {
  const std::optional<trace::TraceModel> filtered = filter_model(base, plan);
  return render_model(filtered.has_value() ? *filtered : base, plan, checkpoint);
}

Engine::Engine(EngineOptions options)
    : results_(options.result_cache_bytes), models_(options.model_cache_bytes) {}

Plan Engine::canonicalize(const trace::OsntReader& reader, Plan plan) const {
  if (plan.t0 == 0 && plan.t1 == kTimeInfinity) return plan;
  // A window at or before the first record and past the last is the whole
  // trace: the clip keeps every record and the meta clamp is a no-op. Only
  // the chunk index can prove that (a file without chunks keeps its literal
  // window).
  const auto& chunks = reader.chunks();
  const trace::TraceMeta& meta = reader.meta();
  if (!chunks.empty() && plan.t0 <= std::min(meta.start_ns, chunks.front().t_first) &&
      plan.t1 > chunks.back().t_last && plan.t1 >= meta.end_ns) {
    plan.t0 = 0;
    plan.t1 = kTimeInfinity;
  }
  return plan;
}

std::shared_ptr<const trace::TraceModel> Engine::model(trace::OsntReader& reader,
                                                       const std::string& trace_id,
                                                       const Plan& plan, ThreadPool* pool) {
  // Window pushdown: the index time range selects a contiguous chunk range,
  // which is also the model-cache granularity — two windows mapping to the
  // same range share one decode (a file without records maps every window
  // to the empty range). A cpu predicate additionally prunes chunks whose
  // mask excludes the CPU; pruned chunks contain no records of that CPU, so
  // the restricted result is unchanged. Masks of truncated or
  // index-recovered files are not trusted.
  const auto [lo, hi] = reader.window_chunk_range(plan.t0, plan.t1);
  const bool prune_by_cpu =
      plan.cpu.has_value() && !reader.truncated() && !reader.index_recovered();
  std::string key = trace_id + "|chunks=" + std::to_string(lo) + ':' + std::to_string(hi);
  if (prune_by_cpu) key += "|cpu=" + std::to_string(*plan.cpu);
  std::shared_ptr<const trace::TraceModel> base;
  if (!trace_id.empty()) base = models_.get(key);
  if (!base) {
    std::vector<std::size_t> ids;
    ids.reserve(hi - lo);
    const auto& chunks = reader.chunks();
    const std::uint64_t want = plan.cpu.has_value() ? cpu_mask_bit(*plan.cpu) : 0;
    for (std::size_t i = lo; i < hi; ++i)
      if (!prune_by_cpu || (chunks[i].cpu_mask & want) != 0) ids.push_back(i);
    base = std::make_shared<const trace::TraceModel>(reader.read_chunks(ids, pool));
    if (!trace_id.empty()) models_.put(key, base, base->footprint_bytes());
  }
  std::optional<trace::TraceModel> filtered = filter_model(*base, plan);
  if (!filtered.has_value()) return base;
  return std::make_shared<const trace::TraceModel>(std::move(*filtered));
}

std::string Engine::run(trace::OsntReader& reader, const std::string& trace_id,
                        const Plan& plan_in, ThreadPool* pool,
                        const Checkpoint& checkpoint) {
  const Plan plan = canonicalize(reader, plan_in);
  validate_plan(plan);

  const std::string key =
      trace_id.empty() ? std::string() : trace_id + '|' + fingerprint(plan);
  if (!key.empty())
    if (auto hit = results_.get(key)) return *hit;

  if (checkpoint) checkpoint("before decode");
  // The index-only answer is byte-identical to the record-decode path by the
  // IndexAggregator contract, so the result cache stays coherent across both.
  std::optional<std::string> fast;
  if (fast_path_eligible(plan)) fast = exporter::index_summary_json(reader);
  std::string payload = fast.has_value()
                            ? std::move(*fast)
                            : render_model(*model(reader, trace_id, plan, pool), plan, checkpoint);
  if (checkpoint) checkpoint("after analysis");
  if (!key.empty())
    results_.put(key, std::make_shared<const std::string>(payload), payload.size());
  return payload;
}

}  // namespace osn::query
