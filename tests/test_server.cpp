// End-to-end server tests: concurrent clients, byte-identity with the
// offline exporter, cache behaviour, deadlines, load shedding, drain.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "export/json.hpp"
#include "noise/analysis.hpp"
#include "query/engine.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "line_reader.hpp"
#include "serve_helpers.hpp"

namespace osn::serve {
namespace {

using serve::testing::TempDir;
using serve::testing::make_model;
using serve::testing::write_trace;
using osn::testing::recv_line;

ServerOptions options_for(const std::string& dir) {
  ServerOptions o;
  o.dir = dir;
  o.port = 0;  // kernel-assigned; no port races between parallel tests
  o.workers = 4;
  return o;
}

Request summary_request(std::uint64_t id) {
  Request req;
  req.id = id;
  req.op = Op::kSummary;
  req.trace = "t";
  return req;
}

Request window_request(std::uint64_t id, double from_ms, double to_ms) {
  Request req;
  req.id = id;
  req.op = Op::kWindow;
  req.trace = "t";
  req.has_window = true;
  req.window_from_ms = from_ms;
  req.window_to_ms = to_ms;
  return req;
}

TEST(Server, ConcurrentClientsMatchOfflineAnalysis) {
  TempDir dir("server_e2e");
  const trace::TraceModel model = make_model();
  write_trace(model, dir.path(), "t");

  // The offline truth, computed exactly as `osn-analyze export --json` and
  // `stats --window 0.5:1.5` would: the window's model from Engine::model.
  const std::string offline_summary =
      exporter::summary_json(noise::NoiseAnalysis(model));
  trace::OsntReader reader(dir.path() + "/t.osnt");
  query::Plan window_plan;
  ASSERT_TRUE(query::window_from_ms(window_plan, 0.5, 1.5));
  const auto window_model = query::Engine().model(reader, "", window_plan);
  const std::string offline_window =
      exporter::summary_json(noise::NoiseAnalysis(*window_model));

  Server server(options_for(dir.path()));
  ASSERT_TRUE(server.start());

  constexpr std::size_t kThreads = 6;  // >= 4 concurrent clients, mixed query types
  std::vector<std::string> payloads(kThreads);
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Client client("127.0.0.1", server.port(), Deadline::after(sec(10)));
      const Request req = i % 2 == 0 ? summary_request(static_cast<std::uint64_t>(i + 1))
                                     : window_request(static_cast<std::uint64_t>(i + 1),
                                                      0.5, 1.5);
      const Response resp = client.call(req, Deadline::after(sec(60)));
      if (resp.ok) {
        payloads[i] = resp.payload;
      } else {
        errors[i] = resp.error + ": " + resp.message;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(errors[i].empty()) << "client " << i << ": " << errors[i];
    EXPECT_EQ(payloads[i], i % 2 == 0 ? offline_summary : offline_window)
        << "client " << i;
  }

  // Repeat queries must be result-cache hits. Summary answers from the
  // index pre-aggregates without materializing a model, so the model cache
  // is exercised by chart ops: the first decodes and caches the model, a
  // second with a different quantum misses the result cache but reuses the
  // cached model.
  Client client("127.0.0.1", server.port(), Deadline::after(sec(10)));
  ASSERT_TRUE(client.call(summary_request(100), Deadline::after(sec(60))).ok);
  Request chart;
  chart.id = 102;
  chart.op = Op::kChart;
  chart.trace = "t";
  ASSERT_TRUE(client.call(chart, Deadline::after(sec(60))).ok);
  Request chart2 = chart;
  chart2.id = 103;
  chart2.quantum_us = 500;
  ASSERT_TRUE(client.call(chart2, Deadline::after(sec(60))).ok);
  Request metrics_req;
  metrics_req.id = 101;
  metrics_req.op = Op::kMetrics;
  const Response metrics = client.call(metrics_req, Deadline::after(sec(10)));
  ASSERT_TRUE(metrics.ok) << metrics.message;
  const auto doc = parse_json(metrics.payload);
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->find("result_cache"), nullptr);
  ASSERT_NE(doc->find("model_cache"), nullptr);
  EXPECT_GT(doc->find("result_cache")->find("hits")->number, 0.0);
  EXPECT_GT(doc->find("model_cache")->find("hits")->number, 0.0);
  EXPECT_GT(doc->find("requests")->number, 0.0);
  EXPECT_GT(doc->find("latency")->find("samples")->number, 0.0);

  server.stop();
}

TEST(Server, InfoChartAndListRoundTrip) {
  TempDir dir("server_ops");
  const trace::TraceModel model = make_model();
  write_trace(model, dir.path(), "t");
  Server server(options_for(dir.path()));
  ASSERT_TRUE(server.start());
  Client client("127.0.0.1", server.port(), Deadline::after(sec(10)));

  Request list;
  list.id = 1;
  list.op = Op::kList;
  const Response list_resp = client.call(list, Deadline::after(sec(10)));
  ASSERT_TRUE(list_resp.ok) << list_resp.message;
  EXPECT_NE(list_resp.payload.find("\"name\": \"t\""), std::string::npos);

  Request info;
  info.id = 2;
  info.op = Op::kInfo;
  info.trace = "t";
  const Response info_resp = client.call(info, Deadline::after(sec(10)));
  ASSERT_TRUE(info_resp.ok) << info_resp.message;
  const auto info_doc = parse_json(info_resp.payload);
  ASSERT_TRUE(info_doc.has_value());
  EXPECT_EQ(info_doc->find("version")->number, 3.0);
  EXPECT_EQ(info_doc->find("n_cpus")->number, 2.0);
  EXPECT_EQ(static_cast<std::size_t>(info_doc->find("tasks")->array.size()), 3u);

  Request chart;
  chart.id = 3;
  chart.op = Op::kChart;
  chart.trace = "t";
  chart.quantum_us = 100;
  const Response chart_resp = client.call(chart, Deadline::after(sec(60)));
  ASSERT_TRUE(chart_resp.ok) << chart_resp.message;
  const auto chart_doc = parse_json(chart_resp.payload);
  ASSERT_TRUE(chart_doc.has_value());
  EXPECT_EQ(chart_doc->find("task")->string, "rank0");
  EXPECT_GT(chart_doc->find("quanta")->array.size(), 0u);

  // Error paths over the wire.
  Request unknown = summary_request(4);
  unknown.trace = "no_such_trace";
  EXPECT_EQ(client.call(unknown, Deadline::after(sec(10))).error, errc::kUnknownTrace);
  EXPECT_EQ(client.call_line("definitely not json", 5, Deadline::after(sec(10))).error,
            errc::kBadRequest);
  // Hostile numerics: 2^61 microseconds would wrap the ns conversion to 0
  // and divide the daemon by zero; it must come back as a clean error.
  EXPECT_EQ(client
                .call_line(
                    R"({"id":6,"op":"chart","trace":"t","quantum_us":2305843009213693952})",
                    6, Deadline::after(sec(10)))
                .error,
            errc::kBadRequest);

  server.stop();
}

TEST(Server, TimeseriesTopkAndCpuPredicateMatchOfflinePlanner) {
  TempDir dir("server_new_ops");
  const trace::TraceModel model = make_model();
  write_trace(model, dir.path(), "t");

  // The offline truth through the same planner the CLI drives; byte-identity
  // here proves serve and `osn-analyze timeseries/topk/summary --cpu` agree.
  query::Engine engine;
  trace::OsntReader reader(dir.path() + "/t.osnt");
  query::Plan ts_plan;
  ts_plan.aggregate = query::Aggregate::kTimeseries;
  ts_plan.quantum = 100 * kNsPerUs;
  const std::string offline_ts = engine.run(reader, "", ts_plan);
  query::Plan ts_act_plan = ts_plan;
  ts_act_plan.activity = noise::ActivityKind::kPageFault;
  const std::string offline_ts_act = engine.run(reader, "", ts_act_plan);
  query::Plan topk_plan;
  topk_plan.aggregate = query::Aggregate::kTopK;
  topk_plan.k = 2;
  const std::string offline_topk = engine.run(reader, "", topk_plan);
  query::Plan cpu_plan;
  cpu_plan.cpu = 1;
  const std::string offline_cpu = engine.run(reader, "", cpu_plan);

  Server server(options_for(dir.path()));
  ASSERT_TRUE(server.start());
  Client client("127.0.0.1", server.port(), Deadline::after(sec(10)));

  Request ts;
  ts.id = 1;
  ts.op = Op::kTimeseries;
  ts.trace = "t";
  ts.quantum_us = 100;
  const Response ts_resp = client.call(ts, Deadline::after(sec(60)));
  ASSERT_TRUE(ts_resp.ok) << ts_resp.message;
  EXPECT_EQ(ts_resp.payload, offline_ts);

  Request ts_act = ts;
  ts_act.id = 2;
  ts_act.activity = "page_fault";
  const Response ts_act_resp = client.call(ts_act, Deadline::after(sec(60)));
  ASSERT_TRUE(ts_act_resp.ok) << ts_act_resp.message;
  EXPECT_EQ(ts_act_resp.payload, offline_ts_act);
  EXPECT_NE(ts_act_resp.payload.find("\"activity\": \"page_fault\""),
            std::string::npos);

  Request topk;
  topk.id = 3;
  topk.op = Op::kTopK;
  topk.trace = "t";
  topk.k = 2;
  const Response topk_resp = client.call(topk, Deadline::after(sec(60)));
  ASSERT_TRUE(topk_resp.ok) << topk_resp.message;
  EXPECT_EQ(topk_resp.payload, offline_topk);

  Request cpu = summary_request(4);
  cpu.cpu = 1;
  const Response cpu_resp = client.call(cpu, Deadline::after(sec(60)));
  ASSERT_TRUE(cpu_resp.ok) << cpu_resp.message;
  EXPECT_EQ(cpu_resp.payload, offline_cpu);

  // Unexecutable new-op requests come back as clean protocol errors.
  Request bad_activity = ts;
  bad_activity.id = 5;
  bad_activity.activity = "definitely_not_an_activity";
  EXPECT_EQ(client.call(bad_activity, Deadline::after(sec(10))).error,
            errc::kBadRequest);
  EXPECT_EQ(client
                .call_line(R"({"id":6,"op":"topk","trace":"t","k":0})", 6,
                           Deadline::after(sec(10)))
                .error,
            errc::kBadRequest);
  EXPECT_EQ(client
                .call_line(R"({"id":7,"op":"summary","trace":"t","cpu":70000})", 7,
                           Deadline::after(sec(10)))
                .error,
            errc::kBadRequest);

  server.stop();
}

// Every data op that carries a window answers for that window: a served
// summary, chart, timeseries or topk with --window 0.5:1.5 is the document
// `osn-analyze summary|chart --json|timeseries|topk --window 0.5:1.5` prints,
// on both wires, and differs from the unwindowed one.
TEST(Server, WindowAppliesToEveryDataOp) {
  TempDir dir("server_window_ops");
  write_trace(make_model(), dir.path(), "t");
  Server server(options_for(dir.path()));
  ASSERT_TRUE(server.start());

  query::Engine engine;
  trace::OsntReader reader(dir.path() + "/t.osnt");
  for (const Op op : {Op::kSummary, Op::kChart, Op::kTimeseries, Op::kTopK}) {
    Request req;
    req.id = 1;
    req.op = op;
    req.trace = "t";
    req.quantum_us = 100;
    req.k = 2;
    // The plan the CLI builds for the same flags, spelled out field by field.
    query::Plan plan;
    plan.aggregate = op == Op::kSummary  ? query::Aggregate::kSummary
                     : op == Op::kChart  ? query::Aggregate::kChart
                     : op == Op::kTopK   ? query::Aggregate::kTopK
                                         : query::Aggregate::kTimeseries;
    plan.quantum = 100 * kNsPerUs;
    plan.k = 2;
    const std::string full = engine.run(reader, "", plan);
    ASSERT_TRUE(query::window_from_ms(plan, 0.5, 1.5));
    const std::string windowed = engine.run(reader, "", plan);
    ASSERT_NE(windowed, full) << op_name(op);

    req.has_window = true;
    req.window_from_ms = 0.5;
    req.window_to_ms = 1.5;
    for (const Wire wire : {Wire::kJson, Wire::kBinary}) {
      Client client("127.0.0.1", server.port(), Deadline::after(sec(10)), wire);
      ASSERT_TRUE(client.ok());
      const Response resp = client.call(req, Deadline::after(sec(60)));
      ASSERT_TRUE(resp.ok) << op_name(op) << ": " << resp.message;
      EXPECT_EQ(resp.payload, windowed)
          << op_name(op) << (wire == Wire::kJson ? " json" : " osnb");
    }
  }
  server.stop();
}

// A 1 us quantum over 2 s of trace asks for 2,000,000 buckets, past
// query::kMaxBuckets: both wires answer bad_request before anything is
// sized, and the daemon goes on serving.
TEST(Server, OversizedBucketGridIsBadRequestOnBothWires) {
  TempDir dir("server_buckets");
  osn::testing::TraceBuilder b(2);
  b.task(1, "rank0", true).pair(0, 1'000, 2'000, 1, trace::EventType::kIrqEntry, 0);
  write_trace(b.build(2 * kNsPerSec), dir.path(), "t");
  Server server(options_for(dir.path()));
  ASSERT_TRUE(server.start());

  for (const Wire wire : {Wire::kJson, Wire::kBinary}) {
    Client client("127.0.0.1", server.port(), Deadline::after(sec(10)), wire);
    ASSERT_TRUE(client.ok());
    for (const Op op : {Op::kChart, Op::kTimeseries}) {
      Request req;
      req.id = 1;
      req.op = op;
      req.trace = "t";
      req.quantum_us = 1;
      const Response resp = client.call(req, Deadline::after(sec(30)));
      EXPECT_FALSE(resp.ok) << op_name(op);
      EXPECT_EQ(resp.error, errc::kBadRequest) << op_name(op);
      EXPECT_NE(resp.message.find("quantum too small: 2000000 buckets"), std::string::npos)
          << resp.message;
      req.quantum_us = 1'000;  // 2,000 buckets
      EXPECT_TRUE(client.call(req, Deadline::after(sec(30))).ok) << op_name(op);
    }
  }
  server.stop();
}

// A document past both the 1 MiB request frame limit and the server's
// per-connection write cap (a chart at a 1 us quantum) comes back whole
// through Client::call on both wires, byte-identical to the offline
// planner's: the client caps a response at kMaxResponseBytes, and the
// server queues one response whatever its size.
TEST(Server, LargeDocumentMatchesOfflinePlannerOnBothWires) {
  TempDir dir("server_large_doc");
  write_trace(make_model(20'000), dir.path(), "t");
  Request req;
  req.id = 1;
  req.op = Op::kChart;
  req.trace = "t";
  req.quantum_us = 1;
  trace::OsntReader reader(dir.path() + "/t.osnt");
  const std::string offline = query::Engine().run(reader, "", plan_from_request(req));
  ASSERT_GT(offline.size(), net::kWriteQueueMax);

  Server server(options_for(dir.path()));
  ASSERT_TRUE(server.start());
  for (const Wire wire : {Wire::kJson, Wire::kBinary}) {
    Client client("127.0.0.1", server.port(), Deadline::after(sec(10)), wire);
    const Response resp = client.call(req, Deadline::after(sec(60)));
    ASSERT_TRUE(resp.ok) << wire_name(wire) << ": " << resp.error << ": " << resp.message;
    EXPECT_EQ(resp.payload, offline) << wire_name(wire);
  }
  server.stop();
}

TEST(Server, IdleConnectionsDoNotPinWorkers) {
  TempDir dir("server_idle");
  write_trace(make_model(), dir.path(), "t");
  ServerOptions opts = options_for(dir.path());
  opts.workers = 2;
  opts.max_inflight = 16;
  Server server(opts);
  ASSERT_TRUE(server.start());

  // More idle connections than workers. Under a connection-pins-worker model
  // these would absorb every worker and later clients would hang unserved.
  std::vector<TcpStream> idlers;
  for (int i = 0; i < 6; ++i) {
    TcpStream s =
        TcpStream::connect("127.0.0.1", server.port(), Deadline::after(sec(10)));
    ASSERT_TRUE(s.ok());
    idlers.push_back(std::move(s));
  }

  Client client("127.0.0.1", server.port(), Deadline::after(sec(10)));
  const Response resp = client.call(summary_request(1), Deadline::after(sec(10)));
  EXPECT_TRUE(resp.ok) << resp.error + ": " + resp.message;

  // The idle connections are still live, not shed or starved themselves.
  Request ping;
  ping.id = 2;
  ping.op = Op::kPing;
  ASSERT_TRUE(idlers[0].send_all(ping.to_line() + "\n", Deadline::after(sec(10))));
  std::string rbuf;
  const auto line = recv_line(idlers[0], rbuf, Deadline::after(sec(10)));
  ASSERT_TRUE(line.has_value());
  const auto pong = parse_response(*line);
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->ok) << pong->error + ": " + pong->message;

  server.stop();
}

TEST(Server, PipelinedRequestsAreServedInOrder) {
  TempDir dir("server_pipeline");
  write_trace(make_model(), dir.path(), "t");
  Server server(options_for(dir.path()));
  ASSERT_TRUE(server.start());

  // Two requests in one write: the second arrives buffered behind the first,
  // where poll(2) cannot see it — the server must drain it anyway.
  TcpStream s = TcpStream::connect("127.0.0.1", server.port(), Deadline::after(sec(10)));
  ASSERT_TRUE(s.ok());
  Request first;
  first.id = 1;
  first.op = Op::kPing;
  Request second = summary_request(2);
  ASSERT_TRUE(s.send_all(first.to_line() + "\n" + second.to_line() + "\n",
                         Deadline::after(sec(10))));
  std::string rbuf;
  for (std::uint64_t expect_id = 1; expect_id <= 2; ++expect_id) {
    const auto line = recv_line(s, rbuf, Deadline::after(sec(30)));
    ASSERT_TRUE(line.has_value()) << "response " << expect_id;
    const auto resp = parse_response(*line);
    ASSERT_TRUE(resp.has_value());
    EXPECT_TRUE(resp->ok) << resp->error + ": " + resp->message;
    EXPECT_EQ(resp->id, expect_id);
  }

  server.stop();
}

TEST(Server, DeadlineExceededIsReported) {
  TempDir dir("server_deadline");
  write_trace(make_model(), dir.path(), "t");
  Server server(options_for(dir.path()));
  ASSERT_TRUE(server.start());
  Client client("127.0.0.1", server.port(), Deadline::after(sec(10)));

  Request req = summary_request(1);
  req.deadline = 0;  // already expired at the first stage boundary
  const Response resp = client.call(req, Deadline::after(sec(10)));
  ASSERT_FALSE(resp.ok);
  EXPECT_EQ(resp.error, errc::kDeadlineExceeded);
  EXPECT_GE(server.metrics().deadline_exceeded(), 1u);

  // A ping stalling past its budget also dies by deadline.
  Request ping;
  ping.id = 2;
  ping.op = Op::kPing;
  ping.stall = sec(5);
  ping.deadline = 50 * kNsPerMs;
  const Response ping_resp = client.call(ping, Deadline::after(sec(10)));
  ASSERT_FALSE(ping_resp.ok);
  EXPECT_EQ(ping_resp.error, errc::kDeadlineExceeded);

  server.stop();
}

TEST(Server, ClientClosesAfterADeadlineSoNoLateReplyIsMisread) {
  TempDir dir("server_client_deadline");
  write_trace(make_model(), dir.path(), "t");
  Server server(options_for(dir.path()));
  ASSERT_TRUE(server.start());
  Client client("127.0.0.1", server.port(), Deadline::after(sec(10)));

  Request slow;
  slow.id = 1;
  slow.op = Op::kPing;
  slow.stall = 500 * kNsPerMs;
  const Response late = client.call(slow, Deadline::after(50 * kNsPerMs));
  EXPECT_EQ(late.error, kTransportError);
  EXPECT_EQ(late.message, "no response before the deadline");
  EXPECT_FALSE(client.ok());
  // The next call must not read the slow ping's reply as its own.
  const Response next = client.call(summary_request(2), Deadline::after(sec(10)));
  EXPECT_EQ(next.error, kTransportError);
  EXPECT_EQ(next.message, "not connected");

  server.stop();
}

TEST(Server, ShedsWhenAtCapacity) {
  TempDir dir("server_shed");
  write_trace(make_model(), dir.path(), "t");
  ServerOptions opts = options_for(dir.path());
  opts.workers = 2;
  opts.max_inflight = 2;
  Server server(opts);
  ASSERT_TRUE(server.start());

  // Two connections stall inside ping, filling both inflight slots.
  std::vector<std::thread> stallers;
  std::atomic<int> completed{0};
  for (int i = 0; i < 2; ++i) {
    stallers.emplace_back([&, i] {
      Client client("127.0.0.1", server.port(), Deadline::after(sec(10)));
      Request ping;
      ping.id = static_cast<std::uint64_t>(i + 1);
      ping.op = Op::kPing;
      ping.stall = sec(3);
      const Response resp = client.call(ping, Deadline::after(sec(30)));
      EXPECT_TRUE(resp.ok) << resp.message;
      completed.fetch_add(1);
    });
  }
  // Wait until both stalling requests are actually executing.
  const Deadline setup = Deadline::after(sec(20));
  while (server.metrics().requests() < 2 && !setup.expired())
    Deadline::after(5 * kNsPerMs).sleep_remaining();
  ASSERT_GE(server.metrics().requests(), 2u);

  // The third connection must be shed with an explicit overloaded error.
  Client extra("127.0.0.1", server.port(), Deadline::after(sec(10)));
  Request ping;
  ping.id = 9;
  ping.op = Op::kPing;
  const Response shed = extra.call(ping, Deadline::after(sec(30)));
  ASSERT_FALSE(shed.ok);
  EXPECT_EQ(shed.error, errc::kOverloaded);
  EXPECT_GE(server.metrics().shed(), 1u);

  for (auto& t : stallers) t.join();
  EXPECT_EQ(completed.load(), 2);
  server.stop();
}

TEST(Server, GracefulDrainFinishesInflightAndTellsIdleClients) {
  TempDir dir("server_drain");
  write_trace(make_model(), dir.path(), "t");
  Server server(options_for(dir.path()));
  ASSERT_TRUE(server.start());

  // An idle client should be told the server is going away, not just see EOF.
  TcpStream idle = TcpStream::connect("127.0.0.1", server.port(), Deadline::after(sec(10)));
  ASSERT_TRUE(idle.ok());

  // An in-flight stalled ping must still complete (the drain flag cuts the
  // stall short rather than abandoning the request).
  std::thread inflight([&] {
    Client client("127.0.0.1", server.port(), Deadline::after(sec(10)));
    Request ping;
    ping.id = 1;
    ping.op = Op::kPing;
    ping.stall = sec(8);
    const Response resp = client.call(ping, Deadline::after(sec(30)));
    EXPECT_TRUE(resp.ok) << resp.error + ": " + resp.message;
  });
  const Deadline setup = Deadline::after(sec(20));
  while (server.metrics().requests() < 1 && !setup.expired())
    Deadline::after(5 * kNsPerMs).sleep_remaining();

  const TimeNs stop_start = monotonic_now_ns();
  server.stop();
  // Drain must not wait out the full 8 s stall.
  EXPECT_LT(monotonic_now_ns() - stop_start, sec(6));
  inflight.join();

  std::string rbuf;
  const auto line = recv_line(idle, rbuf, Deadline::after(sec(5)));
  ASSERT_TRUE(line.has_value());
  const auto resp = parse_response(*line);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->error, errc::kShuttingDown);
}

TEST(Server, BinaryWireMatchesJsonWireByteForByte) {
  TempDir dir("server_binary");
  write_trace(make_model(), dir.path(), "t");
  Server server(options_for(dir.path()));
  ASSERT_TRUE(server.start());

  Client json("127.0.0.1", server.port(), Deadline::after(sec(10)), Wire::kJson);
  Client binary("127.0.0.1", server.port(), Deadline::after(sec(10)), Wire::kBinary);
  ASSERT_TRUE(json.ok());
  ASSERT_TRUE(binary.ok());

  // Same ops down both wires: payload documents must be byte-identical —
  // OSNB replaces the envelope, never the content.
  std::vector<Request> requests;
  requests.push_back(summary_request(1));
  requests.push_back(window_request(2, 0.5, 1.5));
  Request list;
  list.id = 3;
  list.op = Op::kList;
  requests.push_back(list);
  Request info;
  info.id = 4;
  info.op = Op::kInfo;
  info.trace = "t";
  requests.push_back(info);
  Request topk;
  topk.id = 5;
  topk.op = Op::kTopK;
  topk.trace = "t";
  topk.k = 2;
  requests.push_back(topk);
  Request ping;
  ping.id = 6;
  ping.op = Op::kPing;
  requests.push_back(ping);

  for (const Request& req : requests) {
    const Response via_json = json.call(req, Deadline::after(sec(60)));
    const Response via_binary = binary.call(req, Deadline::after(sec(60)));
    ASSERT_TRUE(via_json.ok) << op_name(req.op) << ": " << via_json.message;
    ASSERT_TRUE(via_binary.ok) << op_name(req.op) << ": " << via_binary.message;
    EXPECT_EQ(via_binary.id, req.id);
    EXPECT_EQ(via_binary.payload, via_json.payload) << op_name(req.op);
  }

  // Error paths cross the binary wire with the same codes.
  Request unknown = summary_request(7);
  unknown.trace = "no_such_trace";
  EXPECT_EQ(binary.call(unknown, Deadline::after(sec(10))).error,
            errc::kUnknownTrace);

  // Both wires show up in the metrics per-wire counters.
  Request metrics_req;
  metrics_req.id = 8;
  metrics_req.op = Op::kMetrics;
  const Response metrics = binary.call(metrics_req, Deadline::after(sec(10)));
  ASSERT_TRUE(metrics.ok) << metrics.message;
  const auto doc = parse_json(metrics.payload);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* net = doc->find("net");
  ASSERT_NE(net, nullptr) << "metrics must carry the net section";
  EXPECT_GE(net->find("requests_json")->number, 6.0);
  EXPECT_GE(net->find("requests_osnb")->number, 7.0);
  EXPECT_GE(net->find("open")->number, 2.0);
  EXPECT_GE(net->find("accepted")->number, 2.0);

  server.stop();
}

TEST(Server, BinaryClientIsShedWithBinaryControlFrame) {
  TempDir dir("server_binary_shed");
  write_trace(make_model(), dir.path(), "t");
  ServerOptions opts = options_for(dir.path());
  opts.max_inflight = 1;
  Server server(opts);
  ASSERT_TRUE(server.start());

  // Fill the only inflight slot with a stalled JSON request, then knock on
  // the binary door: the overloaded response must come back OSNB-framed,
  // not as a JSON line.
  std::thread occupant([&] {
    Client client("127.0.0.1", server.port(), Deadline::after(sec(10)));
    Request stalled;
    stalled.id = 1;
    stalled.op = Op::kPing;
    stalled.stall = sec(3);
    EXPECT_TRUE(client.call(stalled, Deadline::after(sec(30))).ok);
  });
  const Deadline setup = Deadline::after(sec(20));
  while (server.metrics().requests() < 1 && !setup.expired())
    Deadline::after(5 * kNsPerMs).sleep_remaining();

  Client binary("127.0.0.1", server.port(), Deadline::after(sec(10)), Wire::kBinary);
  Request ping;
  ping.id = 2;
  ping.op = Op::kPing;
  const Response shed = binary.call(ping, Deadline::after(sec(30)));
  ASSERT_FALSE(shed.ok);
  EXPECT_EQ(shed.error, errc::kOverloaded);
  EXPECT_GE(server.metrics().shed(), 1u);

  occupant.join();
  server.stop();
}

TEST(Server, PollBackendServesBothWires) {
  TempDir dir("server_poll");
  write_trace(make_model(), dir.path(), "t");
  ServerOptions opts = options_for(dir.path());
  opts.use_poll_backend = true;
  Server server(opts);
  ASSERT_TRUE(server.start());
  EXPECT_STREQ(server.backend(), "poll");

  for (const Wire wire : {Wire::kJson, Wire::kBinary}) {
    Client client("127.0.0.1", server.port(), Deadline::after(sec(10)), wire);
    const Response resp = client.call(summary_request(1), Deadline::after(sec(60)));
    EXPECT_TRUE(resp.ok) << wire_name(wire) << ": " << resp.error + ": " + resp.message;
  }

  server.stop();
}

TEST(Server, IdleTimeoutReapsQuietConnections) {
  TempDir dir("server_idle_timeout");
  write_trace(make_model(), dir.path(), "t");
  ServerOptions opts = options_for(dir.path());
  opts.idle_timeout = 100 * kNsPerMs;
  Server server(opts);
  ASSERT_TRUE(server.start());

  TcpStream quiet =
      TcpStream::connect("127.0.0.1", server.port(), Deadline::after(sec(10)));
  ASSERT_TRUE(quiet.ok());
  // The server closes the idle connection; the client sees EOF, no goodbye.
  std::string rbuf;
  EXPECT_FALSE(recv_line(quiet, rbuf, Deadline::after(sec(10))).has_value());
  EXPECT_FALSE(quiet.ok());

  // An active client on the same server is untouched.
  Client active("127.0.0.1", server.port(), Deadline::after(sec(10)));
  EXPECT_TRUE(active.call(summary_request(1), Deadline::after(sec(60))).ok);

  server.stop();
}

}  // namespace
}  // namespace osn::serve
