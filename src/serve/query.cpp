#include "serve/query.hpp"

#include <exception>
#include <utility>

#include "common/json_writer.hpp"
#include "noise/interval.hpp"

namespace osn::serve {

namespace {

std::string list_payload(const QueryContext& ctx) {
  ctx.catalog->refresh();
  JsonWriter w(JsonWriter::Layout::kBlock);
  w.begin_object().field("dir", ctx.catalog->dir());
  w.key("traces").begin_array();
  for (const TraceEntry& e : ctx.catalog->list()) {
    w.begin_object().field("name", e.name).field("usable", e.usable());
    if (!e.usable()) {
      w.field("error", e.error);
    } else {
      w.field("version", 3)  // every OSNT file is v3
          .field("truncated", e.truncated)
          .field("records", e.records)
          .field("chunks", e.chunks)
          .field("workload", e.workload)
          .field("duration_ns", sat_sub(e.end_ns, e.start_ns))
          .field("n_cpus", e.n_cpus);
    }
    w.field("bytes", e.size).end_object();
  }
  w.end_array().end_object();
  return std::move(w).take();
}

std::string info_payload(const Lease& lease) {
  const trace::OsntReader& reader = *lease.reader;
  const trace::TraceMeta& meta = reader.meta();
  JsonWriter w(JsonWriter::Layout::kBlock);
  w.begin_object()
      .field("name", lease.entry.name)
      .field("version", 3)  // every OSNT file is v3
      .field("truncated", reader.truncated())
      .field("index_recovered", reader.index_recovered())
      .field("chunks", reader.chunks().size())
      .field("indexed_records", reader.indexed_records())
      .field("workload", meta.workload)
      .field("start_ns", meta.start_ns)
      .field("end_ns", meta.end_ns)
      .field("duration_ns", sat_sub(meta.end_ns, meta.start_ns))
      .field("n_cpus", meta.n_cpus)
      .field("tick_period_ns", meta.tick_period_ns);
  w.key("tasks").begin_array();
  for (const auto& [pid, info] : reader.tasks())
    w.begin_object()
        .field("pid", pid)
        .field("name", info.name)
        .field("kind",
               info.is_app ? "application" : (info.is_kernel_thread ? "kthread" : "user"))
        .end_object();
  w.end_array().end_object();
  return std::move(w).take();
}

/// Thrown by the engine checkpoint when the request deadline expires
/// mid-execution; caught in execute_query and turned into the response.
/// Not a std::exception on purpose — it must never be swallowed by the
/// generic internal-error handler.
struct DeadlineError {
  const char* stage;
};

Response deadline_failure(const QueryContext& ctx, const Request& req,
                          const char* stage) {
  ctx.metrics->count_deadline_exceeded();
  return Response::failure(req.id, errc::kDeadlineExceeded,
                           std::string("deadline exceeded ") + stage);
}

Response run_query(const QueryContext& ctx, const Request& req, Deadline deadline) {
  // Uncached control-plane ops first.
  if (req.op == Op::kPing) {
    const Deadline stall_end = Deadline::after(req.stall);
    while (!stall_end.expired()) {
      if (deadline.expired()) return deadline_failure(ctx, req, "during stall");
      if (ctx.draining != nullptr && ctx.draining->load(std::memory_order_acquire))
        break;  // drain cuts the stall short; the response still completes
      stall_end.min(deadline).sleep_remaining(10 * kNsPerMs);
    }
    JsonWriter w(JsonWriter::Layout::kBlock);
    w.begin_object().field("pong", true).end_object();
    return Response::success(req.id, std::move(w).take());
  }
  if (req.op == Op::kMetrics) {
    const std::optional<NetGauges> net =
        ctx.net_gauges ? std::optional(ctx.net_gauges()) : std::nullopt;
    return Response::success(
        req.id, ctx.metrics->to_json(ctx.engine->result_cache_stats(),
                                     ctx.engine->model_cache_stats(), net ? &*net : nullptr));
  }
  if (req.op == Op::kList) return Response::success(req.id, list_payload(ctx));
  if (req.op == Op::kRefresh) {
    // The explicit rescan op: `list` refreshes too, but a monitor client
    // wants "notice new segments" without paying for the full listing.
    ctx.catalog->refresh();
    JsonWriter w(JsonWriter::Layout::kBlock);
    w.begin_object()
        .field("refreshed", true)
        .field("traces", ctx.catalog->list().size())
        .end_object();
    return Response::success(req.id, std::move(w).take());
  }
  if (req.op == Op::kAlerts || req.op == Op::kMonitorStatus) {
    const auto& provider =
        req.op == Op::kAlerts ? ctx.monitor_alerts : ctx.monitor_status;
    if (!provider)
      return Response::failure(req.id, errc::kBadRequest, "no monitor attached");
    return Response::success(req.id, provider());
  }

  // Ops that address one trace: lease it first.
  if (deadline.expired()) return deadline_failure(ctx, req, "before lease");
  Lease lease = ctx.catalog->open(req.trace);
  if (!lease.reader) {
    const bool unknown = lease.error.rfind("unknown trace", 0) == 0;
    return Response::failure(req.id, unknown ? errc::kUnknownTrace : errc::kTraceError,
                             lease.error);
  }
  if (req.op == Op::kInfo) return Response::success(req.id, info_payload(lease));

  // Data-plane ops run through the shared engine: it owns the result and
  // model caches, the index-only fast path, and the chunk pushdown. The
  // checkpoint turns engine stage boundaries into deadline enforcement.
  const query::Plan plan = plan_from_request(req);
  std::string payload = ctx.engine->run(
      *lease.reader, lease.entry.id(), plan, /*pool=*/nullptr,
      [&deadline](const char* stage) {
        if (deadline.expired()) throw DeadlineError{stage};
      });
  return Response::success(req.id, std::move(payload));
}

}  // namespace

query::Plan plan_from_request(const Request& req) {
  using query::PlanError;
  query::Plan plan;
  // parse_request bounds quantum_us, but plan_from_request is also reachable
  // with an in-process Request; keep the product guarded here so no caller
  // can wrap the quantum to 0 and SIGFPE the bucket division.
  const auto quantum_ns = [&req]() -> DurNs {
    if (req.quantum_us == 0 || req.quantum_us > kTimeInfinity / kNsPerUs)
      throw PlanError(PlanError::Kind::kBadPlan, "quantum_us out of range");
    return req.quantum_us * kNsPerUs;
  };
  switch (req.op) {
    case Op::kSummary:
    case Op::kWindow:
      break;
    case Op::kChart:
      plan.aggregate = query::Aggregate::kChart;
      plan.task = req.task;
      plan.quantum = quantum_ns();
      break;
    case Op::kTimeseries:
      plan.aggregate = query::Aggregate::kTimeseries;
      plan.quantum = quantum_ns();
      if (!req.activity.empty()) {
        const auto kind = noise::activity_from_name(req.activity);
        if (!kind.has_value())
          throw PlanError(PlanError::Kind::kBadPlan,
                          "unknown activity: " + req.activity);
        plan.activity = *kind;
      }
      break;
    case Op::kTopK:
      plan.aggregate = query::Aggregate::kTopK;
      plan.k = static_cast<std::size_t>(req.k);
      break;
    default:
      throw PlanError(PlanError::Kind::kBadPlan,
                      std::string(op_name(req.op)) + " has no query plan");
  }
  // Every data op takes a window; the window op is a summary that must have
  // one (without it, the 0:0 default is rejected here).
  if ((req.has_window || req.op == Op::kWindow) &&
      !query::window_from_ms(plan, req.window_from_ms, req.window_to_ms))
    throw PlanError(PlanError::Kind::kBadPlan, "window requires 0 <= from_ms < to_ms");
  plan.cpu = req.cpu;
  return plan;
}

Response execute_query(const QueryContext& ctx, const Request& req, Deadline deadline) {
  ctx.metrics->count_request(static_cast<std::size_t>(req.op));
  Response resp;
  try {
    resp = run_query(ctx, req, deadline);
  } catch (const DeadlineError& e) {
    resp = deadline_failure(ctx, req, e.stage);
  } catch (const query::PlanError& e) {
    resp = Response::failure(req.id,
                             e.kind() == query::PlanError::Kind::kBadPlan
                                 ? errc::kBadRequest
                                 : errc::kTraceError,
                             e.what());
  } catch (const trace::TraceReadError& e) {
    resp = Response::failure(req.id, errc::kTraceError, e.what());
  } catch (const std::exception& e) {
    resp = Response::failure(req.id, errc::kInternal, e.what());
  }
  if (resp.ok) {
    ctx.metrics->count_ok();
  } else {
    ctx.metrics->count_error();
  }
  return resp;
}

}  // namespace osn::serve
