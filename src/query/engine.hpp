// The query executor: one Plan in, one rendered JSON document out.
//
// Both front ends — osn-analyze subcommands and osn-served ops — build a
// Plan through serve::plan_from_request and call Engine::run, or
// Engine::model for osn-analyze's text reports.
// The engine owns every execution decision the front ends used to duplicate
// (and get subtly different):
//
//  * fast path   — a full-span, default-options summary plan over a file
//                  with intact pre-aggregates answers from the index alone
//                  (index_summary_json), byte-identical to record decode by
//                  the IndexAggregator contract;
//  * pushdown    — the window predicate selects the contiguous chunk range
//                  from the v3 index (t_first/t_last), and a cpu predicate
//                  additionally prunes chunks whose cpu_mask excludes the
//                  CPU (clean files only — truncated or index-recovered
//                  files keep every chunk, their masks may under-report);
//  * model cache — decoded models are cached at chunk-range granularity
//                  (key: stamp|chunks=lo:hi), so partially-overlapping
//                  windows that map to the same chunk range reuse one
//                  decode, and full-trace plans share the same entry; a
//                  window is window_of(read_chunks(range)) of that entry;
//  * result cache— rendered payloads keyed by stamp + plan fingerprint,
//                  with full-cover windows canonicalized so "window over
//                  everything" and "summary" share one entry.
//
// Determinism contract: run() produces byte-identical documents for equal
// (trace bytes, plan) regardless of pool, options.jobs, I/O backend
// (mmap/pread), cache state, or which front end built the plan — the
// property the planner equivalence tests pin.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/thread_pool.hpp"
#include "query/lru_cache.hpp"
#include "query/plan.hpp"
#include "trace/osnt_reader.hpp"

namespace osn::query {

struct EngineOptions {
  std::uint64_t result_cache_bytes = 64ull << 20;
  std::uint64_t model_cache_bytes = 256ull << 20;
};

/// Stage-boundary hook: invoked with a stage label ("before decode",
/// "before analysis", "after analysis") at the points where execution can
/// still be abandoned cheaply. Throwing aborts the run — the server's
/// deadline enforcement; the CLI passes none.
using Checkpoint = std::function<void(const char* stage)>;

/// True when the plan is the one shape the index-only fast path answers: a
/// full-span, default-options summary with no predicates. Exposed so
/// alternative executors (the monitor's rolling-segment view) route exactly
/// like the engine.
bool fast_path_eligible(const Plan& plan);

/// Structural plan validation (window order, quantum/k ranges). Throws
/// PlanError kBadPlan; shared by Engine::run and the rolling-segment view.
void validate_plan(const Plan& plan);

/// The task a chart (and osn-analyze's chart, interruptions, lookalikes)
/// follows: `task`, or the first application rank. Throws PlanError
/// kTraceMismatch without application tasks, kBadPlan for a non-app `task`.
Pid chart_task(const trace::TraceModel& model, std::optional<Pid> task);

/// Renders `plan` against an already-decoded model: the filter step, then
/// analysis and aggregate rendering. The tail of Engine execution once a base
/// model exists, exposed for executors that build models from other stores
/// (rolling segments). Byte-identical to Engine::run on a reader whose
/// read_all yields `base`.
std::string render_plan(const trace::TraceModel& base, const Plan& plan,
                        const Checkpoint& checkpoint = {});

class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes `plan` against the trace behind `reader` and returns the
  /// rendered JSON document. `trace_id` is the trace's identity stamp
  /// (catalog: name|size|mtime) used as the cache-key prefix; empty
  /// disables both caches (the single-shot CLI default). Throws PlanError
  /// for unexecutable plans, trace::TraceReadError for corrupt input, and
  /// whatever `checkpoint` throws.
  std::string run(trace::OsntReader& reader, const std::string& trace_id,
                  const Plan& plan, ThreadPool* pool = nullptr,
                  const Checkpoint& checkpoint = {});

  /// Canonicalized copy of `plan` for this trace: a window provably
  /// covering the whole span collapses to (0, kTimeInfinity). Exposed so
  /// tests can assert cache-key identity between full-cover windows and
  /// plain summaries.
  Plan canonicalize(const trace::OsntReader& reader, Plan plan) const;

  /// The model `plan` analyses: its window's chunk range (minus the chunks a
  /// cpu predicate prunes by mask), decoded or from the model cache, then
  /// the filter step. Does not canonicalize or validate the plan.
  std::shared_ptr<const trace::TraceModel> model(trace::OsntReader& reader,
                                                 const std::string& trace_id,
                                                 const Plan& plan, ThreadPool* pool = nullptr);

  CacheStats result_cache_stats() const { return results_.stats(); }
  CacheStats model_cache_stats() const { return models_.stats(); }

 private:
  ShardedLruCache<std::string> results_;
  ShardedLruCache<trace::TraceModel> models_;
};

}  // namespace osn::query
