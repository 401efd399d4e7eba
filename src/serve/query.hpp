// Query execution: one Request in, one Response out.
//
// This is the server's data plane, deliberately independent of sockets and
// threads so tests can drive it directly. The server translates a wire
// Request into a query::Plan and hands it to the shared query::Engine —
// the same executor the offline CLI uses — so a served payload is
// byte-identical to the offline document by construction, and all caching
// (plan-fingerprint result cache, chunk-range model cache) lives in one
// place. Only the control-plane ops (list, info, metrics, ping) are
// answered here.
//
// Deadlines are checked at stage boundaries (before lease, before decode,
// before/after analysis — the engine's checkpoint hook) — the stages
// themselves are not interruptible, so a deadline bounds *queueing +
// staleness*, not a hard wall; an expired deadline yields
// errc::kDeadlineExceeded rather than a late answer.
#pragma once

#include <atomic>
#include <functional>
#include <string>

#include "common/clock.hpp"
#include "query/engine.hpp"
#include "serve/catalog.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"

namespace osn::serve {

/// Everything execute_query needs; owned by the Server, shared by workers.
struct QueryContext {
  TraceCatalog* catalog = nullptr;
  query::Engine* engine = nullptr;
  ServerMetrics* metrics = nullptr;
  /// Optional drain flag: a set flag cuts ping stalls short so graceful
  /// shutdown is not held hostage by load-test requests.
  const std::atomic<bool>* draining = nullptr;
  /// Optional sampler for the event loop's connection gauges; when set, the
  /// `metrics` op payload gains a "net" section.
  std::function<NetGauges()> net_gauges;
  /// Optional monitor hooks (osn-monitord wires these to its Monitor; a
  /// plain osn-served leaves them empty and the monitor ops answer
  /// bad_request). Providers return complete JSON documents.
  std::function<std::string()> monitor_status;
  std::function<std::string()> monitor_alerts;
};

/// Executes one request. Never throws: trace problems become trace_error
/// responses, unknown names unknown_trace, expired deadlines
/// deadline_exceeded. Updates cache + outcome counters (but not latency —
/// the server observes that around the whole request).
Response execute_query(const QueryContext& ctx, const Request& req, Deadline deadline);

/// Translates a request into the canonical plan the engine executes: the
/// one Request -> Plan translation, shared by the server and every
/// osn-analyze report command (which decode their flags into a Request
/// first). Every data op applies its window when it carries one; the window
/// op must. Throws query::PlanError for semantically invalid combinations
/// (unknown activity name, a window empty after the ms -> ns conversion).
query::Plan plan_from_request(const Request& req);

}  // namespace osn::serve
