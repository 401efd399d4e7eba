// Golden document bytes: the exact JSON every renderer emits — the export
// documents (summary, chart, timeseries, topk), the serve control-plane
// payloads (metrics, list, info, ping, refresh), the monitor payloads
// (monitor_status, alerts) and osn-lint's --json report. Each document is
// also re-parsed, so a golden string can never pin invalid JSON. These
// strings must never be edited to follow a code change: a diff here is an
// output-format break for every tool that consumes the documents.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "export/json.hpp"
#include "lint/driver.hpp"
#include "monitor/monitor.hpp"
#include "noise/analysis.hpp"
#include "noise/chart.hpp"
#include "query/engine.hpp"
#include "serve/catalog.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/query.hpp"
#include "serve_helpers.hpp"
#include "trace_builder.hpp"

namespace osn {
namespace {

using osn::testing::TraceBuilder;
using serve::testing::TempDir;
using trace::EventType;

void expect_doc(const std::string& actual, const std::string& expected) {
  EXPECT_EQ(actual, expected);
  EXPECT_TRUE(serve::parse_json(actual).has_value()) << actual;
}

/// Two ranks on two CPUs (one with a name JSON must escape) plus a kernel
/// thread: irq and page-fault noise on rank 0, irq noise on rank 1.
trace::TraceModel golden_model() {
  TraceBuilder b(2);
  b.task(1, "rank \"0\" \xC3\xA9", true).task(2, "rank1", true).task(9, "events/0", false, true);
  b.pair(0, 100, 2'278, 1, EventType::kIrqEntry, 0);
  b.pair(0, 5'000, 7'913, 1, EventType::kPageFaultEntry, 0);
  b.pair(1, 1'200, 1'900, 2, EventType::kIrqEntry, 0);
  return b.build(10'000);
}

// ---------------------------------------------------------------------------
// export/: summary, chart, timeseries, topk
// ---------------------------------------------------------------------------

TEST(JsonGolden, Summary) {
  const trace::TraceModel model = golden_model();
  const noise::NoiseAnalysis analysis(model);
  expect_doc(exporter::summary_json(analysis), R"json({
  "workload": "test",
  "duration_ns": 10000,
  "cpus": 2,
  "tick_period_ns": 10000000,
  "events": 6,
  "noise_intervals": 3,
  "activities": {
    "timer_interrupt": {"count": 2, "freq_ev_per_sec": 100000.000, "avg_ns": 1439.0, "max_ns": 2178, "min_ns": 700},
    "page_fault": {"count": 1, "freq_ev_per_sec": 50000.000, "avg_ns": 2913.0, "max_ns": 2913, "min_ns": 2913}
  },
  "ranks": [
    {"pid": 1, "name": "rank \"0\" )json"
             "\xC3\xA9"
             R"json(", "total_noise_ns": 5091, "by_category": {"periodic": 2178, "page fault": 2913, "scheduling": 0, "preemption": 0, "I/O": 0}},
    {"pid": 2, "name": "rank1", "total_noise_ns": 700, "by_category": {"periodic": 700, "page fault": 0, "scheduling": 0, "preemption": 0, "I/O": 0}}
  ]
}
)json");
}

// The three empty-container cases below printed `{\n\n  }` and `[\n  ]`
// before the shared writer; every layout now spells them `{}` and `[]`.
TEST(JsonGolden, SummaryEmptyActivities) {
  const trace::TraceModel model = TraceBuilder(1).task(1, "app", true).build(100);
  expect_doc(exporter::summary_json(noise::NoiseAnalysis(model)), R"json({
  "workload": "test",
  "duration_ns": 100,
  "cpus": 1,
  "tick_period_ns": 10000000,
  "events": 0,
  "noise_intervals": 0,
  "activities": {},
  "ranks": [
    {"pid": 1, "name": "app", "total_noise_ns": 0, "by_category": {"periodic": 0, "page fault": 0, "scheduling": 0, "preemption": 0, "I/O": 0}}
  ]
}
)json");
}

TEST(JsonGolden, SummaryEmptyRanks) {
  TraceBuilder b(1);
  b.task(9, "events/0", false, true).pair(0, 10, 40, 9, EventType::kIrqEntry, 0);
  const trace::TraceModel model = b.build(100);
  expect_doc(exporter::summary_json(noise::NoiseAnalysis(model)), R"json({
  "workload": "test",
  "duration_ns": 100,
  "cpus": 1,
  "tick_period_ns": 10000000,
  "events": 2,
  "noise_intervals": 0,
  "activities": {
    "timer_interrupt": {"count": 1, "freq_ev_per_sec": 10000000.000, "avg_ns": 30.0, "max_ns": 30, "min_ns": 30}
  },
  "ranks": []
}
)json");
}

TEST(JsonGolden, Chart) {
  const trace::TraceModel model = golden_model();
  const noise::NoiseAnalysis analysis(model);
  const noise::SyntheticChart chart = noise::build_chart(analysis, 1, 0, 2'500, 4);
  expect_doc(exporter::chart_json(chart, model.task_name(1)), R"json({
  "task": "rank \"0\" )json"
                                                              "\xC3\xA9"
                                                              R"json(",
  "origin_ns": 0,
  "quantum_ns": 2500,
  "quanta": [
    {"start_ns": 0, "total_ns": 2178, "components": [{"activity": "timer_interrupt", "duration_ns": 2178}]},
    {"start_ns": 2500, "total_ns": 0, "components": []},
    {"start_ns": 5000, "total_ns": 2500, "components": [{"activity": "page_fault", "duration_ns": 2500}]},
    {"start_ns": 7500, "total_ns": 413, "components": [{"activity": "page_fault", "duration_ns": 413}]}
  ]
}
)json");
}

TEST(JsonGolden, Timeseries) {
  const trace::TraceModel model = golden_model();
  const noise::NoiseAnalysis analysis(model);
  expect_doc(exporter::timeseries_json(noise::build_activity_series(
                 analysis, noise::ActivityKind::kMaxKind, 0, 2'500, 4)),
             R"json({
  "activity": "all",
  "origin_ns": 0,
  "quantum_ns": 2500,
  "quanta": [
    {"start_ns": 0, "total_ns": 2878, "count": 2},
    {"start_ns": 2500, "total_ns": 0, "count": 0},
    {"start_ns": 5000, "total_ns": 2500, "count": 1},
    {"start_ns": 7500, "total_ns": 413, "count": 0}
  ]
}
)json");
  expect_doc(exporter::timeseries_json(noise::build_activity_series(
                 analysis, noise::ActivityKind::kPageFault, 0, 5'000, 2)),
             R"json({
  "activity": "page_fault",
  "origin_ns": 0,
  "quantum_ns": 5000,
  "quanta": [
    {"start_ns": 0, "total_ns": 0, "count": 0},
    {"start_ns": 5000, "total_ns": 2913, "count": 1}
  ]
}
)json");
}

TEST(JsonGolden, TopK) {
  const trace::TraceModel model = golden_model();
  const noise::NoiseAnalysis analysis(model);
  expect_doc(exporter::topk_json(noise::top_noisy_cpus(analysis, 3), 3), R"json({
  "k": 3,
  "cpus": [
    {"cpu": 0, "total_noise_ns": 5091, "intervals": 2},
    {"cpu": 1, "total_noise_ns": 700, "intervals": 1}
  ]
}
)json");
}

TEST(JsonGolden, TopKEmptyCpus) {
  expect_doc(exporter::topk_json({}, 3), "{\n  \"k\": 3,\n  \"cpus\": []\n}\n");
}

// The widest rows the documents can hold: every number UINT64_MAX, two
// components of the longest activity names in one quantum, and a task name
// that escapes to six bytes a byte. chart_json and timeseries_json reserve
// an upper bound of their size from their row counts, and JsonWriter::take
// aborts if a document outgrows it, so these rows pin the bound too.
TEST(JsonGolden, ChartAndTimeseriesWidestRows) {
  constexpr std::uint64_t kMax = UINT64_MAX;
  const noise::SyntheticChart chart{
      kMax,
      kMax,
      {noise::QuantumNoise{kMax, kMax,
                           {noise::ChartComponent{noise::ActivityKind::kRebalanceSoftirq, 0, kMax},
                            noise::ChartComponent{noise::ActivityKind::kRcuSoftirq, 0, kMax}}},
       noise::QuantumNoise{kMax, kMax,
                           {noise::ChartComponent{noise::ActivityKind::kNetRxTasklet, 0,
                                                  kMax}}}}};
  expect_doc(exporter::chart_json(chart, "\x01\x1f"), R"json({
  "task": "\u0001\u001f",
  "origin_ns": 18446744073709551615,
  "quantum_ns": 18446744073709551615,
  "quanta": [
    {"start_ns": 18446744073709551615, "total_ns": 18446744073709551615, "components": [{"activity": "run_rebalance_domains", "duration_ns": 18446744073709551615}, {"activity": "rcu_process_callbacks", "duration_ns": 18446744073709551615}]},
    {"start_ns": 18446744073709551615, "total_ns": 18446744073709551615, "components": [{"activity": "net_rx_action", "duration_ns": 18446744073709551615}]}
  ]
}
)json");
  const noise::ActivitySeries series{noise::ActivityKind::kRebalanceSoftirq, kMax, 0,
                                     {kMax, kMax}, {kMax, kMax}};
  expect_doc(exporter::timeseries_json(series), R"json({
  "activity": "run_rebalance_domains",
  "origin_ns": 18446744073709551615,
  "quantum_ns": 0,
  "quanta": [
    {"start_ns": 18446744073709551615, "total_ns": 18446744073709551615, "count": 18446744073709551615},
    {"start_ns": 18446744073709551615, "total_ns": 18446744073709551615, "count": 18446744073709551615}
  ]
}
)json");
}

// ---------------------------------------------------------------------------
// serve/: metrics and the control-plane payloads
// ---------------------------------------------------------------------------

void count_golden_traffic(serve::ServerMetrics& m) {
  m.count_request(static_cast<std::size_t>(serve::Op::kSummary));
  m.count_request(static_cast<std::size_t>(serve::Op::kSummary));
  m.count_request(static_cast<std::size_t>(serve::Op::kPing));
  m.count_ok();
  m.count_ok();
  m.count_error();
  m.count_shed();
  m.count_deadline_exceeded();
  m.count_bad_line();
  m.count_connection();
  m.observe_latency(1'000);
  m.observe_latency(250'000);
  m.observe_latency(4 * kNsPerMs);
}

TEST(JsonGolden, Metrics) {
  serve::ServerMetrics m;
  count_golden_traffic(m);
  query::CacheStats results;
  results.hits = 5;
  results.misses = 2;
  results.insertions = 2;
  results.evictions = 1;
  results.oversize = 0;
  results.entries = 1;
  results.bytes = 4'096;
  query::CacheStats models;
  models.misses = 1;
  models.insertions = 1;
  models.entries = 1;
  models.bytes = 123'456;
  const std::string head = R"json({
  "requests": 3,
  "per_op": {
    "list": 0,
    "info": 0,
    "summary": 2,
    "chart": 0,
    "window": 0,
    "timeseries": 0,
    "topk": 0,
    "refresh": 0,
    "alerts": 0,
    "monitor_status": 0,
    "metrics": 0,
    "ping": 1
  },
  "ok": 2,
  "errors": 1,
  "shed": 1,
  "deadline_exceeded": 1,
  "bad_lines": 1,
  "connections": 1,
  "latency": {
    "samples": 3,
    "p50_ns": 196608,
    "p90_ns": 3565158,
    "p99_ns": 4131389
  },
  "result_cache": {
    "hits": 5,
    "misses": 2,
    "insertions": 2,
    "evictions": 1,
    "oversize": 0,
    "entries": 1,
    "bytes": 4096
  },
  "model_cache": {
    "hits": 0,
    "misses": 1,
    "insertions": 1,
    "evictions": 0,
    "oversize": 0,
    "entries": 1,
    "bytes": 123456
  })json";
  expect_doc(m.to_json(results, models), head + "\n}\n");

  serve::NetGauges net;
  net.backend = "epoll";
  net.accepted = 11;
  net.open = 3;
  net.dispatched = 1;
  net.draining = 1;
  net.requests_json = 7;
  net.requests_osnb = 4;
  net.write_queue_hwm = 65'536;
  net.slow_reader_closes = 2;
  net.idle_timeouts = 5;
  net.codec_errors = 6;
  expect_doc(m.to_json(results, models, &net), head + R"json(,
  "net": {
    "backend": "epoll",
    "accepted": 11,
    "open": 3,
    "idle": 0,
    "dispatched": 1,
    "draining": 1,
    "requests_json": 7,
    "requests_osnb": 4,
    "write_queue_hwm": 65536,
    "slow_reader_closes": 2,
    "idle_timeouts": 5,
    "codec_errors": 6
  }
}
)json");
}

/// Runs one control-plane op against `dir` and returns its payload.
std::string payload(const std::string& dir, serve::Op op, const std::string& trace = "") {
  serve::TraceCatalog catalog(dir);
  query::Engine engine;
  serve::ServerMetrics metrics;
  serve::QueryContext ctx;
  ctx.catalog = &catalog;
  ctx.engine = &engine;
  ctx.metrics = &metrics;
  serve::Request req;
  req.op = op;
  req.trace = trace;
  const serve::Response resp = serve::execute_query(ctx, req, Deadline::never());
  EXPECT_TRUE(resp.ok) << resp.message;
  return resp.payload;
}

TEST(JsonGolden, ListAndInfo) {
  TempDir dir("golden_list");
  serve::testing::write_trace(serve::testing::make_model(4), dir.path(), "good");
  std::ofstream(dir.path() + "/junk.osnt") << "this is not OSNT at all";
  expect_doc(payload(dir.path(), serve::Op::kList), "{\n  \"dir\": \"" + dir.path() + R"json(",
  "traces": [
    {
      "name": "good",
      "usable": true,
      "version": 3,
      "truncated": false,
      "records": 16,
      "chunks": 1,
      "workload": "test",
      "duration_ns": 40001,
      "n_cpus": 2,
      "bytes": 242
    },
    {
      "name": "junk",
      "usable": false,
      "error": "bad magic: not an OSNT trace (byte 0)",
      "bytes": 23
    }
  ]
}
)json");
  expect_doc(payload(dir.path(), serve::Op::kInfo, "good"), R"json({
  "name": "good",
  "version": 3,
  "truncated": false,
  "index_recovered": false,
  "chunks": 1,
  "indexed_records": 16,
  "workload": "test",
  "start_ns": 0,
  "end_ns": 40001,
  "duration_ns": 40001,
  "n_cpus": 2,
  "tick_period_ns": 10000000,
  "tasks": [
    {
      "pid": 1,
      "name": "rank0",
      "kind": "application"
    },
    {
      "pid": 2,
      "name": "rank1",
      "kind": "application"
    },
    {
      "pid": 9,
      "name": "events/0",
      "kind": "kthread"
    }
  ]
}
)json");
}

TEST(JsonGolden, ListEmptyTraces) {
  TempDir dir("golden_empty");
  expect_doc(payload(dir.path(), serve::Op::kList),
             "{\n  \"dir\": \"" + dir.path() + "\",\n  \"traces\": []\n}\n");
}

TEST(JsonGolden, InfoEmptyTasks) {
  TempDir dir("golden_notasks");
  TraceBuilder b(1);
  b.pair(0, 10, 40, 7, EventType::kIrqEntry, 0);
  serve::testing::write_trace(b.build(100), dir.path(), "bare");
  expect_doc(payload(dir.path(), serve::Op::kInfo, "bare"), R"json({
  "name": "bare",
  "version": 3,
  "truncated": false,
  "index_recovered": false,
  "chunks": 1,
  "indexed_records": 2,
  "workload": "test",
  "start_ns": 0,
  "end_ns": 100,
  "duration_ns": 100,
  "n_cpus": 1,
  "tick_period_ns": 10000000,
  "tasks": []
}
)json");
}

TEST(JsonGolden, PingAndRefresh) {
  TempDir dir("golden_ping");
  serve::testing::write_trace(serve::testing::make_model(4), dir.path(), "good");
  expect_doc(payload(dir.path(), serve::Op::kPing), "{\n  \"pong\": true\n}\n");
  expect_doc(payload(dir.path(), serve::Op::kRefresh),
             "{\n  \"refreshed\": true,\n  \"traces\": 1\n}\n");
}

// ---------------------------------------------------------------------------
// monitor/: monitor_status and alerts
// ---------------------------------------------------------------------------

/// make_model's periodic noise, with rank 1's page faults stretched from
/// 900 ns to 6 us inside each burst [from, to) (in 10 us periods).
trace::TraceModel bursty_model(const std::vector<std::pair<int, int>>& bursts) {
  TraceBuilder b(2);
  b.task(1, "rank0", true).task(2, "rank1", true).task(9, "events/0", false, true);
  for (int i = 0; i < 440; ++i) {
    const TimeNs base = static_cast<TimeNs>(i) * 10'000;
    DurNs pf = 900;
    for (const auto& [from, to] : bursts)
      if (i >= from && i < to) pf = 6'000;
    b.pair(0, base + 1'000, base + 1'700, 1, EventType::kIrqEntry, 0);
    b.pair(1, base + 3'000, base + 3'000 + pf, 2, EventType::kPageFaultEntry, 0);
  }
  return b.build(440 * 10'000 + 1);
}

/// Replays `model` through a monitor with 200 us windows and returns it.
std::unique_ptr<monitor::Monitor> replay(const trace::TraceModel& model,
                                         const std::string& dir) {
  monitor::MonitorOptions opts;
  opts.store.dir = dir;
  opts.store.segment_ns = kNsPerMs;
  opts.store.segment_bytes = 0;
  opts.store.chunk_records = 64;
  opts.window_ns = 200 * kNsPerUs;
  opts.detector.warmup_windows = 8;
  opts.detector.sustain = 3;
  opts.detector.clear = 3;
  auto mon = std::make_unique<monitor::Monitor>(opts, model.meta(), model.tasks());
  for (const auto& rec : model.merged()) mon->ingest(rec);
  mon->finish(model.meta().end_ns);
  return mon;
}

TEST(JsonGolden, MonitorStatusAndTwoAlerts) {
  TempDir dir("golden_monitor");
  const auto mon = replay(bursty_model({{180, 260}, {320, 400}}), dir.path() + "/store");
  ASSERT_EQ(mon->alert_count(), 2u);
  expect_doc(mon->alerts_json(), R"json({
  "alerts": [
    {"id": 1, "metric": "p99_interval_ns", "window_start_ns": 1800000, "window_end_ns": 2400000, "observed": 8110.000000, "baseline_mean": 1018.000000, "threshold": 5000.000000},
    {"id": 2, "metric": "p99_interval_ns", "window_start_ns": 3200000, "window_end_ns": 3800000, "observed": 8110.000000, "baseline_mean": 1018.000000, "threshold": 5000.000000}
  ],
  "count": 2
}
)json");
  expect_doc(mon->status_json(), "{\n  \"dir\": \"" + dir.path() + R"json(/store",
  "records": 1760,
  "segments": 5,
  "segments_sealed": 5,
  "segments_compacted": 0,
  "rotations_forced": 0,
  "compactions": 0,
  "compaction_failures": 0,
  "segments_deleted": 0,
  "full_res_bytes": 12819,
  "windows": 22,
  "injected_intervals": 0,
  "finished": true,
  "baseline_armed": true,
  "alerts": 2
}
)json");
}

TEST(JsonGolden, AlertsEmpty) {
  TempDir dir("golden_quiet");
  const auto mon = replay(bursty_model({}), dir.path() + "/store");
  ASSERT_EQ(mon->alert_count(), 0u);
  expect_doc(mon->alerts_json(), "{\n  \"alerts\": [],\n  \"count\": 0\n}\n");
}

// ---------------------------------------------------------------------------
// lint/: osn-lint --json
// ---------------------------------------------------------------------------

TEST(JsonGolden, LintReport) {
  lint::RunResult result;
  result.findings.push_back({"src/a.cpp", 3, "bare-assert", "use OSN_ASSERT, not \"assert\""});
  result.findings.push_back({"tools/b\tc.cpp", 10, "layering", "tools may not include x\\y"});
  result.errors.push_back("cannot read src/\xC3\xA9.cpp");
  result.files = 2;
  expect_doc(lint::to_json(result),
             R"json({"findings":[{"file":"src/a.cpp","line":3,"rule":"bare-assert",)json"
             R"json("message":"use OSN_ASSERT, not \"assert\""},{"file":"tools/b\tc.cpp",)json"
             R"json("line":10,"rule":"layering","message":"tools may not include x\\y"}],)json"
             R"json("errors":["cannot read src/)json"
             "\xC3\xA9"
             R"json(.cpp"],"files":2})json"
             "\n");

  expect_doc(lint::to_json(lint::RunResult{}), "{\"findings\":[],\"errors\":[],\"files\":0}\n");
}

}  // namespace
}  // namespace osn
