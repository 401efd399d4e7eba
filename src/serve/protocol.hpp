// The osn-served wire protocol: line-delimited JSON over TCP.
//
// One request per line, one response per line. Every request is a JSON
// object naming an `op`; responses carry either a `payload` — a complete
// JSON *document* transported as an escaped string, so multi-line documents
// (the same bytes `osn-analyze export --json` writes) survive line framing
// byte-for-byte — or a structured error code.
//
//   -> {"id":1,"op":"summary","trace":"ftq"}
//   <- {"id":1,"ok":true,"payload":"{\n  \"workload\": ...\n}\n"}
//   -> {"id":2,"op":"window","trace":"ftq","window":[100,900]}
//   <- {"id":2,"ok":false,"error":"deadline_exceeded","message":"..."}
//
// Ops and fields: op_table() and field_table() below. This header also
// contains the small recursive-descent JSON reader the server uses to parse
// requests (hostile input is an expected condition: any parse problem turns
// into a bad_request response, never a crash).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/types.hpp"

namespace osn::serve {

// ---------------------------------------------------------------------------
// JSON values (parser side; every JSON writer is common/json_writer.hpp)
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers are doubles, and digit-only tokens < 2^64
/// also keep their exact value; objects keep the last value of a repeated key.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::optional<std::uint64_t> exact;  ///< digit-only tokens: no rounding past 2^53
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
};

/// Parses one JSON document. Returns nullopt on any syntax error, trailing
/// garbage, or nesting deeper than a small sanity bound.
std::optional<JsonValue> parse_json(const std::string& text);

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

enum class Op : std::uint8_t {
  kList,        ///< catalog contents
  kInfo,        ///< one trace's metadata/tasks/chunks
  kSummary,     ///< full-trace analysis summary (== osn-analyze export --json)
  kChart,       ///< synthetic noise chart for one task
  kWindow,      ///< summary of a [t0,t1) time slice (chunk-index driven)
  kTimeseries,  ///< one activity's charged noise on a quantum grid
  kTopK,        ///< noisiest CPUs by total charged noise
  kRefresh,     ///< rescan the catalog directory (rolling segment stores)
  kAlerts,      ///< monitor: confirmed noise-regression alerts
  kMonitorStatus,  ///< monitor: store/pipeline counters
  kMetrics,     ///< server counters, cache stats, latency quantiles
  kPing,        ///< liveness; optional stall_ms busy-wait for drain/load
                ///< tests. Must stay the last enumerator: metrics renders
                ///< per-op counters for 0..kPing inclusive.
};

const char* op_name(Op op);

struct Request {
  std::uint64_t id = 0;  ///< echoed in the response; 0 when absent
  Op op = Op::kPing;
  std::string trace;               ///< catalog name (ops that take a trace)
  bool has_window = false;
  double window_from_ms = 0.0;     ///< --window A:B semantics, milliseconds
  double window_to_ms = 0.0;
  std::optional<Pid> task;         ///< chart: rank pid (default: first app)
  std::uint64_t quantum_us = 1000; ///< chart/timeseries quantum
  std::optional<CpuId> cpu;        ///< restrict input records to one CPU
  std::string activity;            ///< timeseries: activity name ("" = all)
  std::uint64_t k = 5;             ///< topk: row count
  std::optional<DurNs> deadline;   ///< per-request budget (from deadline_ms)
  DurNs stall = 0;                 ///< ping: server-side stall (from stall_ms)

  /// Serializes to one request line (no trailing newline).
  std::string to_line() const;
};

/// Parses a request line. On failure returns nullopt and sets `error` to a
/// human-readable reason (the server wraps it in a bad_request response).
std::optional<Request> parse_request(const std::string& line, std::string& error);

/// The same decode over a parsed object (how `osn-analyze query` checks
/// its flags before connecting).
std::optional<Request> parse_request(const JsonValue& root, std::string& error);

// The request schema is two tables in protocol.cpp: both wires' encoders,
// decoders and bounds, and `osn-analyze query`'s flags, walk them. Defaults
// live in Request's initializers; JSON omits a field equal to its default.

struct OpSpec {  ///< one row per Op, in enumerator order
  Op op;
  const char* name;
  bool needs_trace = false;
  bool needs_window = false;
};

enum class FieldKind : std::uint8_t { kOp, kU64, kString, kMsPair };
enum class BoundPolicy : std::uint8_t { kNone, kReject, kClamp };

/// Op and window rows hold monostate: the walkers address those by kind.
using RequestMember =
    std::variant<std::monostate, std::uint64_t Request::*,
                 std::optional<std::uint64_t> Request::*, std::optional<Pid> Request::*,
                 std::optional<CpuId> Request::*, std::string Request::*>;

struct FieldSpec {  ///< one row per Request field, in wire order
  const char* key;  ///< JSON key; the CLI flag is the key with '_' -> '-'
  FieldKind kind;
  RequestMember member;
  std::uint8_t osnb_flag = 0;  ///< 0: OSNB always writes it; else its flags bit
  std::uint64_t scale = 1;     ///< Request value = JSON value * scale, saturating
  BoundPolicy policy = BoundPolicy::kNone;
  std::uint64_t lo = 0;  ///< bound, in JSON units
  std::uint64_t hi = 0;
  bool OpSpec::*required_by = nullptr;  ///< op column that makes the field mandatory
  const char* missing = "";             ///< error after the op name when it is absent
};

std::span<const OpSpec> op_table();
std::span<const FieldSpec> field_table();
const OpSpec* find_op(std::string_view name);  ///< nullptr for an unknown name

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Stable error codes (the `error` field of a failed response).
namespace errc {
inline constexpr const char* kBadRequest = "bad_request";
inline constexpr const char* kUnknownTrace = "unknown_trace";
inline constexpr const char* kTraceError = "trace_error";
inline constexpr const char* kDeadlineExceeded = "deadline_exceeded";
inline constexpr const char* kOverloaded = "overloaded";
inline constexpr const char* kShuttingDown = "shutting_down";
inline constexpr const char* kInternal = "internal";
}  // namespace errc

struct Response {
  std::uint64_t id = 0;
  bool ok = false;
  std::string payload;  ///< JSON document (ok); transported escaped
  std::string error;    ///< errc code (!ok)
  std::string message;  ///< human-readable detail (!ok)

  static Response success(std::uint64_t id, std::string payload);
  static Response failure(std::uint64_t id, std::string error, std::string message);

  /// Serializes to one response line (no trailing newline).
  std::string to_line() const;
};

/// Parses a response line (client side). Nullopt on malformed input.
std::optional<Response> parse_response(const std::string& line);

// ---------------------------------------------------------------------------
// OSNB binary envelope
// ---------------------------------------------------------------------------
//
// The binary wire replaces the JSON *envelope*, not the payloads: an OSNB
// response carries the exact JSON document the line protocol would, so the
// two wires are equivalent by construction (the equivalence tests assert
// byte-identical documents). One OSNB frame payload is:
//
//   tag      u8         0x01 request, 0x02 response
//   -- request --
//   id       varint
//   op       u8         Op enumerator value
//   flags    u8         bit0 window, bit1 task, bit2 cpu, bit3 deadline
//   trace    varint len + bytes        (empty for trace-less ops)
//   window   2 x f64 LE                (iff flags bit0)
//   task     varint pid                (iff flags bit1)
//   quantum  varint microseconds
//   cpu      varint                    (iff flags bit2)
//   activity varint len + bytes
//   k        varint
//   deadline varint nanoseconds        (iff flags bit3)
//   stall    varint nanoseconds
//   -- response --
//   id       varint
//   ok       u8
//   ok=1: payload varint len + bytes
//   ok=0: error varint len + bytes, message varint len + bytes
//
// Varints are the LEB128 the OSNT trace container uses (common/varint.hpp).
// Parsers reject trailing bytes and enforce the same field bounds as the
// JSON reader, so a request means the same thing on either wire.

/// Serializes a request as one OSNB frame payload (no length prefix — the
/// net::OsnbCodec adds framing).
std::string request_to_osnb(const Request& req);

/// Parses an OSNB request frame. Nullopt + `error` on malformed input
/// (wrong tag, bad varint, out-of-range field, trailing bytes).
std::optional<Request> parse_request_osnb(const std::string& frame,
                                          std::string& error);

/// Serializes a response as one OSNB frame payload.
std::string response_to_osnb(const Response& resp);

/// Parses an OSNB response frame (client side). Nullopt on malformed input.
std::optional<Response> parse_response_osnb(const std::string& frame);

}  // namespace osn::serve
