// serve wire protocol: JSON parsing, request validation, response framing.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/varint.hpp"
#include "serve/protocol.hpp"

namespace osn::serve {
namespace {

// --------------------------------------------------------------------------
// JSON parser
// --------------------------------------------------------------------------

TEST(JsonParse, Scalars) {
  EXPECT_EQ(parse_json("null")->kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(parse_json("true")->boolean);
  EXPECT_FALSE(parse_json("false")->boolean);
  EXPECT_DOUBLE_EQ(parse_json("42")->number, 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-1.5e3")->number, -1500.0);
  EXPECT_EQ(parse_json("\"hi\"")->string, "hi");
}

TEST(JsonParse, NestedStructures) {
  const auto v = parse_json(R"({"a":[1,2,{"b":"c"}],"d":{"e":null}})");
  ASSERT_TRUE(v.has_value());
  const JsonValue* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[2].find("b")->string, "c");
  EXPECT_EQ(v->find("d")->find("e")->kind, JsonValue::Kind::kNull);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\nb\t\"\\A")")->string, "a\nb\t\"\\A");
  // Surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(parse_json(R"("😀")")->string, "\xF0\x9F\x98\x80");
  // Lone surrogates are invalid.
  EXPECT_FALSE(parse_json(R"("\ud83d")").has_value());
  EXPECT_FALSE(parse_json(R"("\ude00")").has_value());
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_FALSE(parse_json("").has_value());
  EXPECT_FALSE(parse_json("{").has_value());
  EXPECT_FALSE(parse_json("{\"a\":1,}").has_value());
  EXPECT_FALSE(parse_json("[1 2]").has_value());
  EXPECT_FALSE(parse_json("\"unterminated").has_value());
  EXPECT_FALSE(parse_json("tru").has_value());
  EXPECT_FALSE(parse_json("1e").has_value());
  EXPECT_FALSE(parse_json("{} trailing").has_value());
  EXPECT_FALSE(parse_json("\"raw\ncontrol\"").has_value());
}

TEST(JsonParse, DepthBounded) {
  // Hostile deeply-nested input must fail cleanly, not blow the stack.
  std::string deep;
  for (int i = 0; i < 2000; ++i) deep += '[';
  for (int i = 0; i < 2000; ++i) deep += ']';
  EXPECT_FALSE(parse_json(deep).has_value());
}

// --------------------------------------------------------------------------
// Requests
// --------------------------------------------------------------------------

TEST(RequestParse, MinimalAndRoundTrip) {
  std::string error;
  const auto ping = parse_request(R"({"op":"ping"})", error);
  ASSERT_TRUE(ping.has_value()) << error;
  EXPECT_EQ(ping->op, Op::kPing);
  EXPECT_EQ(ping->id, 0u);

  Request req;
  req.id = 7;
  req.op = Op::kWindow;
  req.trace = "ftq";
  req.has_window = true;
  req.window_from_ms = 100.5;
  req.window_to_ms = 900;
  req.task = 3;
  req.quantum_us = 500;
  req.deadline = 250 * kNsPerMs;
  const auto back = parse_request(req.to_line(), error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->id, 7u);
  EXPECT_EQ(back->op, Op::kWindow);
  EXPECT_EQ(back->trace, "ftq");
  EXPECT_TRUE(back->has_window);
  EXPECT_DOUBLE_EQ(back->window_from_ms, 100.5);
  EXPECT_DOUBLE_EQ(back->window_to_ms, 900.0);
  ASSERT_TRUE(back->task.has_value());
  EXPECT_EQ(*back->task, 3u);
  EXPECT_EQ(back->quantum_us, 500u);
  ASSERT_TRUE(back->deadline.has_value());
  EXPECT_EQ(*back->deadline, 250 * kNsPerMs);
}

TEST(RequestParse, Validation) {
  std::string error;
  EXPECT_FALSE(parse_request("not json", error).has_value());
  EXPECT_FALSE(parse_request("[1,2]", error).has_value());
  EXPECT_FALSE(parse_request(R"({"id":1})", error).has_value());  // no op
  EXPECT_FALSE(parse_request(R"({"op":"explode"})", error).has_value());
  // Trace-addressed ops require a trace name.
  EXPECT_FALSE(parse_request(R"({"op":"summary"})", error).has_value());
  // The window op requires a window, and windows must be ordered.
  EXPECT_FALSE(parse_request(R"({"op":"window","trace":"t"})", error).has_value());
  EXPECT_FALSE(
      parse_request(R"({"op":"window","trace":"t","window":[900,100]})", error)
          .has_value());
  EXPECT_FALSE(
      parse_request(R"({"op":"window","trace":"t","window":[-5,100]})", error)
          .has_value());
  EXPECT_FALSE(
      parse_request(R"({"op":"window","trace":"t","window":[100]})", error).has_value());
  // Numeric fields must be non-negative integers.
  EXPECT_FALSE(parse_request(R"({"op":"ping","id":-1})", error).has_value());
  EXPECT_FALSE(parse_request(R"({"op":"ping","id":1.5})", error).has_value());
  EXPECT_FALSE(
      parse_request(R"({"op":"chart","trace":"t","quantum_us":0})", error).has_value());
}

TEST(RequestParse, HostileNumericBoundsRejected) {
  std::string error;
  // Casting a double >= 2^64 to uint64_t is UB; such values must not reach
  // the cast. 1e300 is an exact non-negative integer as a double.
  EXPECT_FALSE(parse_request(R"({"op":"ping","id":1e300})", error).has_value());
  EXPECT_FALSE(parse_request(R"({"op":"ping","id":18446744073709551616})", error)
                   .has_value());
  // 2^61 is exactly representable and passes the integer check, but
  // quantum_us * 1000 would wrap to 0 and the chart bucket division would
  // SIGFPE the daemon. Must be rejected at parse time.
  EXPECT_FALSE(
      parse_request(R"({"op":"chart","trace":"t","quantum_us":2305843009213693952})",
                    error)
          .has_value());
  // A large but representable value stays in range for the field itself
  // (id has no semantic bound; 2^53 - 1 is the largest exact odd integer).
  EXPECT_TRUE(parse_request(R"({"op":"ping","id":9007199254740991})", error)
                  .has_value())
      << error;
  EXPECT_EQ(parse_request(R"({"op":"ping","id":9007199254740991})", error)->id,
            9007199254740991ull);
  // task is a 32-bit pid: wider values are rejected, not truncated to a
  // different task.
  EXPECT_FALSE(parse_request(R"({"op":"chart","trace":"t","task":4294967296})", error)
                   .has_value());
  EXPECT_EQ(error, "task out of range");
  const auto max_task = parse_request(R"({"op":"chart","trace":"t","task":4294967295})", error);
  ASSERT_TRUE(max_task.has_value()) << error;
  EXPECT_EQ(*max_task->task, 4294967295u);
}

TEST(RequestParse, LargeIntegersAreExact) {
  // Doubles round past 2^53; digit-only tokens must not.
  std::string error;
  for (const std::uint64_t id : {(1ull << 53) + 1, ~0ull}) {
    Request req;
    req.id = id;
    const auto back = parse_request(req.to_line(), error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->id, id);
    const auto resp = parse_response(Response::success(id, "{}\n").to_line());
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->id, id);
  }
  // The documented quantum maximum is accepted on JSON, as it is on OSNB.
  Request max_quantum;
  max_quantum.op = Op::kChart;
  max_quantum.trace = "t";
  max_quantum.quantum_us = kTimeInfinity / kNsPerUs;
  const auto back = parse_request(max_quantum.to_line(), error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->quantum_us, kTimeInfinity / kNsPerUs);
  EXPECT_TRUE(parse_request_osnb(request_to_osnb(max_quantum), error).has_value()) << error;
}

TEST(RequestParse, HugeDeadlineSaturatesInsteadOfWrapping) {
  std::string error;
  // deadline_ms * 1e6 would wrap for large values, spuriously turning a huge
  // requested budget into a tiny one; it must saturate to "never" instead.
  const auto req = parse_request(R"({"op":"ping","deadline_ms":1000000000000000})",
                                 error);
  ASSERT_TRUE(req.has_value()) << error;
  ASSERT_TRUE(req->deadline.has_value());
  EXPECT_EQ(*req->deadline, kTimeInfinity);
}

TEST(RequestParse, StallIsCapped) {
  std::string error;
  const auto req = parse_request(R"({"op":"ping","stall_ms":999999})", error);
  ASSERT_TRUE(req.has_value()) << error;
  EXPECT_EQ(req->stall, 10'000 * kNsPerMs);  // capped at 10 s
}

// --------------------------------------------------------------------------
// Responses
// --------------------------------------------------------------------------

TEST(Response, MultiLinePayloadSurvivesFraming) {
  // Payloads are whole JSON documents with newlines; the response line must
  // carry them byte-exactly without breaking the one-line-per-message frame.
  const std::string doc = "{\n  \"workload\": \"ftq \\ é\",\n  \"n\": 3\n}\n";
  const Response out = Response::success(9, doc);
  const std::string line = out.to_line();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto back = parse_response(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->ok);
  EXPECT_EQ(back->id, 9u);
  EXPECT_EQ(back->payload, doc);
}

TEST(Response, FailureRoundTrip) {
  const Response out = Response::failure(4, errc::kDeadlineExceeded, "too slow");
  const auto back = parse_response(out.to_line());
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->error, errc::kDeadlineExceeded);
  EXPECT_EQ(back->message, "too slow");
}

TEST(Response, ParseRejectsMalformed) {
  EXPECT_FALSE(parse_response("garbage").has_value());
  EXPECT_FALSE(parse_response(R"({"id":1})").has_value());                 // no ok
  EXPECT_FALSE(parse_response(R"({"id":1,"ok":true})").has_value());      // no payload
  EXPECT_FALSE(parse_response(R"({"id":1,"ok":false})").has_value());     // no error
  // The id must be what a request id may be: a non-negative integer < 2^64.
  EXPECT_FALSE(parse_response(R"({"id":1e300,"ok":true,"payload":""})").has_value());
  EXPECT_FALSE(parse_response(R"({"id":-1,"ok":true,"payload":""})").has_value());
  EXPECT_FALSE(parse_response(R"({"id":1.5,"ok":true,"payload":""})").has_value());
}

// --------------------------------------------------------------------------
// OSNB binary envelope
// --------------------------------------------------------------------------

TEST(Osnb, RequestRoundTripsEveryField) {
  Request req;
  req.id = 0xDEADBEEFull;
  req.op = Op::kWindow;
  req.trace = "ftq";
  req.has_window = true;
  req.window_from_ms = 100.5;
  req.window_to_ms = 900.25;
  req.task = 42;
  req.quantum_us = 500;
  req.cpu = 3;
  req.activity = "irq";
  req.k = 12;
  req.deadline = 250 * kNsPerMs;
  req.stall = 7 * kNsPerMs;

  std::string error;
  const auto back = parse_request_osnb(request_to_osnb(req), error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->id, req.id);
  EXPECT_EQ(back->op, Op::kWindow);
  EXPECT_EQ(back->trace, "ftq");
  EXPECT_TRUE(back->has_window);
  EXPECT_DOUBLE_EQ(back->window_from_ms, 100.5);
  EXPECT_DOUBLE_EQ(back->window_to_ms, 900.25);
  ASSERT_TRUE(back->task.has_value());
  EXPECT_EQ(*back->task, 42u);
  EXPECT_EQ(back->quantum_us, 500u);
  ASSERT_TRUE(back->cpu.has_value());
  EXPECT_EQ(*back->cpu, 3u);
  EXPECT_EQ(back->activity, "irq");
  EXPECT_EQ(back->k, 12u);
  ASSERT_TRUE(back->deadline.has_value());
  EXPECT_EQ(*back->deadline, 250 * kNsPerMs);
  EXPECT_EQ(back->stall, 7 * kNsPerMs);
}

TEST(Osnb, MinimalRequestKeepsDefaults) {
  Request req;  // ping with all defaults
  std::string error;
  const auto back = parse_request_osnb(request_to_osnb(req), error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->op, Op::kPing);
  EXPECT_EQ(back->id, 0u);
  EXPECT_FALSE(back->has_window);
  EXPECT_FALSE(back->task.has_value());
  EXPECT_FALSE(back->cpu.has_value());
  EXPECT_FALSE(back->deadline.has_value());
  EXPECT_EQ(back->quantum_us, 1000u);
  EXPECT_EQ(back->k, 5u);
}

// The monitoring ops are trace-less daemon queries; both wires must accept
// them without a trace name and agree on identity after the Op renumbering.
TEST(Osnb, MonitorOpsRoundTripOnBothWires) {
  static constexpr struct {
    Op op;
    const char* name;
  } kOps[] = {{Op::kRefresh, "refresh"},
              {Op::kAlerts, "alerts"},
              {Op::kMonitorStatus, "monitor_status"}};
  std::string error;
  for (const auto& [op, name] : kOps) {
    Request req;
    req.id = 11;
    req.op = op;

    const auto via_json = parse_request(req.to_line(), error);
    ASSERT_TRUE(via_json.has_value()) << name << ": " << error;
    EXPECT_EQ(via_json->op, op) << name;
    EXPECT_EQ(via_json->id, 11u) << name;
    EXPECT_NE(req.to_line().find(std::string("\"") + name + "\""), std::string::npos)
        << name;

    const auto via_osnb = parse_request_osnb(request_to_osnb(req), error);
    ASSERT_TRUE(via_osnb.has_value()) << name << ": " << error;
    EXPECT_EQ(via_osnb->op, op) << name;
    EXPECT_EQ(via_osnb->id, 11u) << name;
  }
}

TEST(Osnb, RequestEnforcesJsonParserBounds) {
  // The two wires must agree on what a valid request is: values the JSON
  // parser rejects must not sneak in through the binary door.
  std::string error;

  Request bad_window;
  bad_window.op = Op::kWindow;
  bad_window.trace = "t";
  bad_window.has_window = true;
  bad_window.window_from_ms = 900;
  bad_window.window_to_ms = 100;  // reversed
  EXPECT_FALSE(parse_request_osnb(request_to_osnb(bad_window), error).has_value());

  Request no_window;
  no_window.op = Op::kWindow;  // window op without a window
  no_window.trace = "t";
  EXPECT_FALSE(parse_request_osnb(request_to_osnb(no_window), error).has_value());

  Request no_trace;
  no_trace.op = Op::kSummary;  // trace-addressed op without a trace
  EXPECT_FALSE(parse_request_osnb(request_to_osnb(no_trace), error).has_value());

  Request zero_quantum;
  zero_quantum.op = Op::kChart;
  zero_quantum.trace = "t";
  zero_quantum.quantum_us = 0;
  EXPECT_FALSE(parse_request_osnb(request_to_osnb(zero_quantum), error).has_value());

  // task 2^32 (flags bit1) in a hand-built chart frame: a Request cannot
  // hold it, and it must not be truncated to task 0.
  const std::string wide_task("\x01\x00\x03\x02\x01t\x80\x80\x80\x80\x10\xe8\x07\x00\x05\x00",
                              16);
  EXPECT_FALSE(parse_request_osnb(wide_task, error).has_value());
  EXPECT_EQ(error, "task out of range");

  Request huge_stall;
  huge_stall.stall = 600'000 * kNsPerMs;
  const auto capped = parse_request_osnb(request_to_osnb(huge_stall), error);
  ASSERT_TRUE(capped.has_value()) << error;
  EXPECT_EQ(capped->stall, 10'000 * kNsPerMs);  // same 10 s cap as stall_ms
}

TEST(Osnb, RequestParserRejectsMangledFrames) {
  Request req;
  req.op = Op::kSummary;
  req.trace = "ftq";
  const std::string good = request_to_osnb(req);
  std::string error;
  ASSERT_TRUE(parse_request_osnb(good, error).has_value()) << error;

  // Every truncation must fail cleanly (a frame is complete by construction;
  // a short one is corruption, not "need more").
  for (std::size_t cut = 0; cut < good.size(); ++cut)
    EXPECT_FALSE(parse_request_osnb(good.substr(0, cut), error).has_value())
        << "cut at " << cut;

  // Trailing bytes are a framing bug, not padding.
  EXPECT_FALSE(parse_request_osnb(good + "x", error).has_value());

  // Wrong tag (a response tag on the request path).
  std::string wrong_tag = good;
  wrong_tag[0] = '\x02';
  EXPECT_FALSE(parse_request_osnb(wrong_tag, error).has_value());

  // Unknown op and unknown flag bits must be rejected, not ignored —
  // otherwise old servers silently misread new clients.
  std::string bad_op = good;
  bad_op[2] = '\x7F';
  EXPECT_FALSE(parse_request_osnb(bad_op, error).has_value());
  std::string bad_flags = good;
  bad_flags[3] = static_cast<char>(0x80);
  EXPECT_FALSE(parse_request_osnb(bad_flags, error).has_value());
}

TEST(Osnb, ResponseSuccessRoundTripPreservesDocumentBytes) {
  // The whole point of the binary wire: the payload document is carried
  // verbatim, newlines and UTF-8 included, with no escaping layer.
  const std::string doc = "{\n  \"workload\": \"ftq \\ é\",\n  \"n\": 3\n}\n";
  const Response out = Response::success(9, doc);
  const auto back = parse_response_osnb(response_to_osnb(out));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->ok);
  EXPECT_EQ(back->id, 9u);
  EXPECT_EQ(back->payload, doc);
}

TEST(Osnb, ResponseFailureRoundTrip) {
  const Response out = Response::failure(4, errc::kDeadlineExceeded, "too slow");
  const auto back = parse_response_osnb(response_to_osnb(out));
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->id, 4u);
  EXPECT_EQ(back->error, errc::kDeadlineExceeded);
  EXPECT_EQ(back->message, "too slow");
}

TEST(Osnb, ResponseParserRejectsMangledFrames) {
  const std::string good = response_to_osnb(Response::success(1, "{}\n"));
  ASSERT_TRUE(parse_response_osnb(good).has_value());
  for (std::size_t cut = 0; cut < good.size(); ++cut)
    EXPECT_FALSE(parse_response_osnb(good.substr(0, cut)).has_value())
        << "cut at " << cut;
  EXPECT_FALSE(parse_response_osnb(good + "x").has_value());
  std::string wrong_tag = good;
  wrong_tag[0] = '\x01';
  EXPECT_FALSE(parse_response_osnb(wrong_tag).has_value());
}

// --------------------------------------------------------------------------
// Generated from the schema tables: every op x bounded field x wire
// --------------------------------------------------------------------------

struct Decoded {
  std::optional<Request> req;
  std::string error;
};

/// A request `op` accepts, optionally leaving out its required rows.
Request valid_request(const OpSpec& op, bool with_trace = true, bool with_window = true) {
  Request req;
  req.op = op.op;
  if (op.needs_trace && with_trace) req.trace = "t";
  if (op.needs_window && with_window) {
    req.has_window = true;
    req.window_from_ms = 1;
    req.window_to_ms = 2;
  }
  return req;
}

std::string with_field(const Request& base, const FieldSpec& f, std::uint64_t v) {
  std::string line = base.to_line();
  line.insert(line.size() - 1, ",\"" + std::string(f.key) + "\":" + std::to_string(v));
  return line;
}

/// `base` with u64 row `f` at JSON value `v`, decoded from the JSON wire.
Decoded via_json(const Request& base, const FieldSpec& f, std::uint64_t v) {
  Decoded d;
  d.req = parse_request(with_field(base, f, v), d.error);
  return d;
}

/// The same from the OSNB wire, where `v` travels in Request units. A
/// Request member cannot hold every out-of-range value, so the frame is
/// spliced: frames for the row's two lowest valid values differ first where
/// the row's varint starts, and `v`'s varint replaces it there.
Decoded via_osnb(const Request& base, const FieldSpec& f, std::uint64_t v) {
  const auto varint = [](std::uint64_t x) {
    std::string out;
    varint_append(out, x);
    return out;
  };
  const auto scaled = [&f](std::uint64_t x) {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    return x > kMax / f.scale ? kMax : x * f.scale;
  };
  std::string error;
  const std::string a = request_to_osnb(*parse_request(with_field(base, f, f.lo), error));
  const std::string b = request_to_osnb(*parse_request(with_field(base, f, f.lo + 1), error));
  const auto at = static_cast<std::size_t>(std::mismatch(a.begin(), a.end(), b.begin()).first -
                                           a.begin());
  const std::string frame =
      a.substr(0, at) + varint(scaled(v)) + a.substr(at + varint(scaled(f.lo)).size());
  Decoded d;
  d.req = parse_request_osnb(frame, d.error);
  return d;
}

TEST(RequestSchema, OpNamesRoundTrip) {
  for (const OpSpec& op : op_table()) {
    ASSERT_NE(find_op(op.name), nullptr) << op.name;
    EXPECT_EQ(find_op(op.name)->op, op.op);
    EXPECT_STREQ(op_name(op.op), op.name);
  }
  EXPECT_EQ(find_op("explode"), nullptr);
}

TEST(RequestSchema, BoundsAgreeAcrossWiresForEveryOp) {
  std::size_t checked = 0;
  for (const OpSpec& op : op_table()) {
    const Request base = valid_request(op);
    for (const FieldSpec& f : field_table()) {
      if (f.policy == BoundPolicy::kNone) continue;
      std::vector<std::uint64_t> values{f.lo, f.hi};
      if (f.lo > 0) values.push_back(f.lo - 1);
      if (f.hi < std::numeric_limits<std::uint64_t>::max()) values.push_back(f.hi + 1);
      for (const std::uint64_t v : values) {
        SCOPED_TRACE(std::string(op.name) + " " + f.key + "=" + std::to_string(v));
        ++checked;
        const Decoded json = via_json(base, f, v);
        const Decoded osnb = via_osnb(base, f, v);
        if (f.policy == BoundPolicy::kReject && (v < f.lo || v > f.hi)) {
          EXPECT_FALSE(json.req.has_value());
          EXPECT_FALSE(osnb.req.has_value());
          EXPECT_EQ(json.error, std::string(f.key) + " out of range");
          EXPECT_EQ(osnb.error, json.error);
          continue;
        }
        ASSERT_TRUE(json.req.has_value()) << json.error;
        ASSERT_TRUE(osnb.req.has_value()) << osnb.error;
        // Both wires decode the same request; a clamp row lands on its bound.
        EXPECT_EQ(request_to_osnb(*osnb.req), request_to_osnb(*json.req));
        const Decoded bounded = via_json(base, f, std::clamp(v, f.lo, f.hi));
        ASSERT_TRUE(bounded.req.has_value()) << bounded.error;
        EXPECT_EQ(json.req->to_line(), bounded.req->to_line());
      }
    }
  }
  // task, quantum_us, cpu, k and stall_ms at 3-4 values each, for 12 ops.
  EXPECT_GE(checked, 12u * 15u);
}

TEST(RequestSchema, EveryOpWithoutItsRequiredRowsIsRejectedOnBothWires) {
  for (const OpSpec& op : op_table()) {
    SCOPED_TRACE(op.name);
    std::string json_error;
    std::string osnb_error;
    const auto expect_rejected = [&](const Request& req, const std::string& message) {
      EXPECT_FALSE(parse_request(req.to_line(), json_error).has_value());
      EXPECT_FALSE(parse_request_osnb(request_to_osnb(req), osnb_error).has_value());
      EXPECT_EQ(json_error, message);
      EXPECT_EQ(osnb_error, message);
    };
    if (op.needs_trace)
      expect_rejected(valid_request(op, false, true),
                      std::string(op.name) + " requires a trace name");
    if (op.needs_window)
      expect_rejected(valid_request(op, true, false), "window op requires a window field");
    const Request bare = valid_request(op, false, false);
    const bool needs_nothing = !op.needs_trace && !op.needs_window;
    EXPECT_EQ(parse_request(bare.to_line(), json_error).has_value(), needs_nothing);
    EXPECT_EQ(parse_request_osnb(request_to_osnb(bare), osnb_error).has_value(),
              needs_nothing);
    const Request full = valid_request(op);
    EXPECT_TRUE(parse_request(full.to_line(), json_error).has_value()) << json_error;
    EXPECT_TRUE(parse_request_osnb(request_to_osnb(full), osnb_error).has_value())
        << osnb_error;
  }
}

}  // namespace
}  // namespace osn::serve
