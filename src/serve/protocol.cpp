#include "serve/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/varint.hpp"
#include "export/json.hpp"

namespace osn::serve {

// ---------------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------------

namespace {

/// Recursive-descent reader over one request/response line. Depth-bounded;
/// every failure is a clean false return, never an exception or crash.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    return pos_ == text_.size();  // trailing garbage is a syntax error
  }

 private:
  static constexpr std::size_t kMaxDepth = 32;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\r' && c != '\n') break;
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool parse_value(JsonValue& out, std::size_t depth) {
    if (depth > kMaxDepth || pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return literal("null");
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return literal("false");
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.string);
      case '[':
      case '{':
        return parse_container(out, depth);
      default:
        return parse_number(out);
    }
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return false;
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(v)) return false;
    out.kind = JsonValue::Kind::kNumber;
    out.number = v;
    // Digit-only tokens that fit also stay exact (doubles round past 2^53).
    if (std::uint64_t exact = 0;
        token.find_first_not_of("0123456789") == std::string::npos &&
        std::from_chars(token.data(), token.data() + token.size(), exact).ec == std::errc())
      out.exact = exact;
    return true;
  }

  /// Appends a code point as UTF-8 (for \uXXXX escapes).
  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return false;
    const char* first = text_.data() + pos_;
    pos_ += 4;
    return std::from_chars(first, first + 4, out, 16).ptr == first + 4;
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            std::uint32_t cp = 0;
            if (!parse_hex4(cp)) return false;
            // Surrogate pair: a high surrogate must be followed by \uDC00..
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                  text_[pos_ + 1] == 'u') {
                pos_ += 2;
                std::uint32_t lo = 0;
                if (!parse_hex4(lo) || lo < 0xDC00 || lo > 0xDFFF) return false;
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
              } else {
                return false;
              }
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return false;  // lone low surrogate
            }
            append_utf8(out, cp);
            break;
          }
          default:
            return false;
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      out += c;
      ++pos_;
    }
    return false;  // unterminated
  }

  /// Arrays and objects: comma-separated members (key ':' value in an
  /// object) up to the closing bracket.
  bool parse_container(JsonValue& out, std::size_t depth) {
    const bool object = text_[pos_++] == '{';
    const char close = object ? '}' : ']';
    out.kind = object ? JsonValue::Kind::kObject : JsonValue::Kind::kArray;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == close) {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (object) {
        if (pos_ >= text_.size() || text_[pos_] != '"' || !parse_string(key)) return false;
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != ':') return false;
        ++pos_;
        skip_ws();
      }
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      if (object) out.object[std::move(key)] = std::move(value);
      else out.array.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_++] == ',') continue;
      return text_[pos_ - 1] == close;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// "1000" not "1000.0": integral protocol fields serialize as integers.
std::string number_to_json(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf),
                v == std::floor(v) && std::abs(v) < 9.0e15 ? "%.0f" : "%.17g", v);
  return buf;
}

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

std::optional<JsonValue> parse_json(const std::string& text) {
  JsonValue out;
  if (!JsonReader(text).parse(out)) return std::nullopt;
  return out;
}

// ---------------------------------------------------------------------------
// Requests: the schema tables and their walkers
// ---------------------------------------------------------------------------

namespace {

using enum FieldKind;
using enum BoundPolicy;

constexpr OpSpec kOps[] = {
    {Op::kList, "list"},
    {Op::kInfo, "info", /*needs_trace=*/true},
    {Op::kSummary, "summary", true},
    {Op::kChart, "chart", true},
    {Op::kWindow, "window", true, /*needs_window=*/true},
    {Op::kTimeseries, "timeseries", true},
    {Op::kTopK, "topk", true},
    {Op::kRefresh, "refresh"},
    {Op::kAlerts, "alerts"},
    {Op::kMonitorStatus, "monitor_status"},
    {Op::kMetrics, "metrics"},
    {Op::kPing, "ping"},
};
static_assert([] {
  for (std::size_t i = 0; i < std::size(kOps); ++i)
    if (kOps[i].op != static_cast<Op>(i)) return false;
  return std::size(kOps) == static_cast<std::size_t>(Op::kPing) + 1;
}(), "kOps is indexed by Op");

// Bounds: a pid is 32-bit; CpuId is 16-bit, so a wider cpu never matches a
// record; the quantum bound keeps quantum_us * kNsPerUs from wrapping to 0
// (a chart bucket division by 0 is a SIGFPE); a load-test stall must not
// park a worker for minutes. A huge deadline saturates to "never", as
// Deadline::after does.
constexpr FieldSpec kFields[] = {
    // key, kind, member, OSNB flag bit, JSON scale, policy, lo, hi, required_by
    {"id", kU64, &Request::id},
    {"op", kOp, {}},
    {"trace", kString, &Request::trace, 0, 1, kNone, 0, 0, &OpSpec::needs_trace,
     " requires a trace name"},
    {"window", kMsPair, {}, 1u << 0, 1, kNone, 0, 0, &OpSpec::needs_window,
     " op requires a window field"},
    {"task", kU64, &Request::task, 1u << 1, 1, kReject, 0, 0xFFFF'FFFF},
    {"quantum_us", kU64, &Request::quantum_us, 0, 1, kReject, 1, kTimeInfinity / kNsPerUs},
    {"cpu", kU64, &Request::cpu, 1u << 2, 1, kReject, 0, 0xFFFF},
    {"activity", kString, &Request::activity},
    {"k", kU64, &Request::k, 0, 1, kReject, 1, 65536},
    {"deadline_ms", kU64, &Request::deadline, 1u << 3, kNsPerMs},
    {"stall_ms", kU64, &Request::stall, 0, kNsPerMs, kClamp, 0, 10'000},
};

constexpr std::uint8_t kKnownFlags = [] {
  std::uint8_t flags = 0;
  for (const FieldSpec& f : kFields) flags |= f.osnb_flag;
  return flags;
}();

/// JSON type errors, by FieldKind (the op's is "missing string field").
constexpr const char* kTypeError[] = {"", " must be a non-negative integer < 2^64",
                                      " must be a string", " must be [from_ms, to_ms]"};

template <class M>
constexpr bool kIsU64Member =
    !std::is_same_v<M, std::monostate> && !std::is_same_v<M, std::string Request::*>;

/// A u64 row's value in Request units; nullopt for an empty optional.
std::optional<std::uint64_t> field_u64(const Request& req, const FieldSpec& f) {
  return std::visit(
      [&req](auto m) -> std::optional<std::uint64_t> {
        if constexpr (kIsU64Member<decltype(m)>) return req.*m;
        return std::nullopt;
      },
      f.member);
}

/// Stores an already-bounded value: a row's hi fits its member.
void set_field_u64(Request& req, const FieldSpec& f, std::uint64_t v) {
  std::visit(
      [&req, v](auto m) {
        if constexpr (kIsU64Member<decltype(m)>) {
          // The member's own type, or its optional's value type.
          using Value = typename decltype(std::optional{req.*m})::value_type;
          req.*m = static_cast<Value>(v);
        }
      },
      f.member);
}

std::uint64_t saturating_mul(std::uint64_t v, std::uint64_t scale) {
  return v > kTimeInfinity / scale ? kTimeInfinity : v * scale;
}

template <class R>  // Request or const Request
auto& string_member(R& req, const FieldSpec& f) {
  return req.*std::get<std::string Request::*>(f.member);
}

/// True when the wire carries the row: always the op, otherwise when it
/// differs from a default-constructed Request's. JSON writes only present
/// rows, and an OSNB flag bit means exactly this.
bool present(const Request& req, const FieldSpec& f) {
  static const Request kDefaults;
  switch (f.kind) {
    case kOp: return true;
    case kU64: return field_u64(req, f) != field_u64(kDefaults, f);
    case kString: return string_member(req, f) != string_member(kDefaults, f);
    case kMsPair: return req.has_window;
  }
  return false;
}

/// The one check of a decoded row, run in wire order by both decoders: a
/// u64 `value` (Request units; nullopt when absent) is clamped or rejected
/// by the row's bound and stored; a window must be ordered (NaN is not); a
/// row the op requires must be present.
bool check_field(const FieldSpec& f, std::optional<std::uint64_t> value, Request& req,
                 std::string& error) {
  if (value.has_value()) {
    const std::uint64_t lo = saturating_mul(f.lo, f.scale);
    const std::uint64_t hi = saturating_mul(f.hi, f.scale);
    if (f.policy == kReject && (*value < lo || *value > hi)) {
      error = std::string(f.key) + " out of range";
      return false;
    }
    set_field_u64(req, f, f.policy == kClamp ? std::clamp(*value, lo, hi) : *value);
  }
  if (f.kind == kMsPair && req.has_window &&
      !(req.window_to_ms > req.window_from_ms && req.window_from_ms >= 0)) {
    error = std::string(f.key) + " requires 0 <= from_ms < to_ms";
    return false;
  }
  const OpSpec& op = kOps[static_cast<std::size_t>(req.op)];
  if (f.required_by != nullptr && op.*f.required_by && !present(req, f)) {
    error = op.name + std::string(f.missing);
    return false;
  }
  return true;
}

/// A JSON non-negative integer < 2^64: digit-only tokens are exact; for the
/// rest the upper bound matters, because casting a double >= 2^64 to
/// uint64_t is undefined behaviour, so hostile values like 1e300 die here.
bool json_u64(const JsonValue& v, std::uint64_t& out) {
  if (v.is_number() && v.exact.has_value()) {
    out = *v.exact;
    return true;
  }
  if (!v.is_number() || v.number < 0 || v.number != std::floor(v.number) ||
      v.number >= 18446744073709551616.0)
    return false;
  out = static_cast<std::uint64_t>(v.number);
  return true;
}

/// Decodes one row of a JSON request object, then checks it.
bool read_json_field(const JsonValue& root, const FieldSpec& f, Request& req,
                     std::string& error) {
  const JsonValue* v = root.find(f.key);
  std::optional<std::uint64_t> value;
  bool typed = true;
  if (f.kind == kOp) {
    const OpSpec* op = v != nullptr && v->is_string() ? find_op(v->string) : nullptr;
    if (op == nullptr) {
      error = v != nullptr && v->is_string() ? "unknown op: " + v->string
                                             : "missing string field: " + std::string(f.key);
      return false;
    }
    req.op = op->op;
  } else if (v != nullptr) {
    std::uint64_t raw = 0;
    switch (f.kind) {
      case kU64:
        if ((typed = json_u64(*v, raw))) value = saturating_mul(raw, f.scale);
        break;
      case kString:
        if ((typed = v->is_string())) string_member(req, f) = v->string;
        break;
      case kMsPair:
        typed = v->kind == JsonValue::Kind::kArray && v->array.size() == 2 &&
                v->array[0].is_number() && v->array[1].is_number();
        if (typed) {
          req.has_window = true;
          req.window_from_ms = v->array[0].number;
          req.window_to_ms = v->array[1].number;
        }
        break;
      case kOp: break;
    }
  }
  if (!typed) {
    error = f.key + std::string(kTypeError[static_cast<std::size_t>(f.kind)]);
    return false;
  }
  return check_field(f, value, req, error);
}

}  // namespace

std::span<const OpSpec> op_table() { return kOps; }
std::span<const FieldSpec> field_table() { return kFields; }

const OpSpec* find_op(std::string_view name) {
  for (const OpSpec& op : kOps)
    if (name == op.name) return &op;
  return nullptr;
}

const char* op_name(Op op) {
  const auto i = static_cast<std::size_t>(op);
  return i < std::size(kOps) ? kOps[i].name : "?";
}

std::optional<Request> parse_request(const JsonValue& root, std::string& error) {
  if (root.kind != JsonValue::Kind::kObject) {
    error = "request is not a JSON object";
    return std::nullopt;
  }
  Request req;
  // The op first: later rows' requirements depend on it.
  for (const bool op_pass : {true, false})
    for (const FieldSpec& f : kFields)
      if ((f.kind == kOp) == op_pass && !read_json_field(root, f, req, error))
        return std::nullopt;
  return req;
}

std::optional<Request> parse_request(const std::string& line, std::string& error) {
  return parse_request(parse_json(line).value_or(JsonValue{}), error);
}

std::string Request::to_line() const {
  std::string out = "{";
  for (const FieldSpec& f : kFields) {
    if (!present(*this, f)) continue;
    out += (out.size() > 1 ? ",\"" : "\"") + std::string(f.key) + "\":";
    switch (f.kind) {
      case kOp: out += '"' + std::string(op_name(op)) + '"'; break;
      case kU64: out += std::to_string(*field_u64(*this, f) / f.scale); break;
      case kString:
        out += '"' + exporter::json_escape(string_member(*this, f)) + '"';
        break;
      case kMsPair:
        out += '[' + number_to_json(window_from_ms) + ',' + number_to_json(window_to_ms) + ']';
        break;
    }
  }
  return out + '}';
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

Response Response::success(std::uint64_t id, std::string payload) {
  Response r;
  r.id = id;
  r.ok = true;
  r.payload = std::move(payload);
  return r;
}

Response Response::failure(std::uint64_t id, std::string error, std::string message) {
  Response r;
  r.id = id;
  r.ok = false;
  r.error = std::move(error);
  r.message = std::move(message);
  return r;
}

std::string Response::to_line() const {
  std::string out = "{\"id\":" + std::to_string(id);
  if (ok) {
    out += ",\"ok\":true,\"payload\":\"" + exporter::json_escape(payload) + "\"}";
  } else {
    out += ",\"ok\":false,\"error\":\"" + exporter::json_escape(error) +
           "\",\"message\":\"" + exporter::json_escape(message) + "\"}";
  }
  return out;
}

std::optional<Response> parse_response(const std::string& line) {
  const auto root = parse_json(line);
  if (!root.has_value() || root->kind != JsonValue::Kind::kObject) return std::nullopt;
  const JsonValue* ok = root->find("ok");
  if (ok == nullptr || ok->kind != JsonValue::Kind::kBool) return std::nullopt;
  Response r;
  r.ok = ok->boolean;
  if (const JsonValue* id = root->find("id"); id != nullptr && !json_u64(*id, r.id))
    return std::nullopt;
  if (r.ok) {
    const JsonValue* payload = root->find("payload");
    if (payload == nullptr || !payload->is_string()) return std::nullopt;
    r.payload = payload->string;
  } else {
    const JsonValue* error = root->find("error");
    if (error == nullptr || !error->is_string()) return std::nullopt;
    r.error = error->string;
    if (const JsonValue* msg = root->find("message"); msg != nullptr && msg->is_string())
      r.message = msg->string;
  }
  return r;
}

// ---------------------------------------------------------------------------
// OSNB binary envelope
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint8_t kTagRequest = 0x01;
constexpr std::uint8_t kTagResponse = 0x02;

/// IEEE-754 bits, explicitly little-endian so the wire is host-independent.
void put_f64(std::string& out, double v) {
  static_assert(sizeof(double) == 8);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  for (int i = 0; i < 8; ++i)
    out += static_cast<char>((bits >> (8 * i)) & 0xFF);
}

bool get_f64(const std::string& frame, std::size_t& pos, double& out) {
  if (frame.size() - pos < 8) return false;
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < 8; ++i)
    bits |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(frame[pos + i]))
            << (8 * i);
  pos += 8;
  std::memcpy(&out, &bits, 8);
  return true;
}

bool get_u8(const std::string& frame, std::size_t& pos, std::uint8_t& out) {
  if (pos >= frame.size()) return false;
  out = static_cast<std::uint8_t>(frame[pos++]);
  return true;
}

/// Varint where "need more" is as malformed as a bad byte: the codec already
/// delivered a complete frame, so truncation inside it is a hard error.
bool get_varint(const std::string& frame, std::size_t& pos, std::uint64_t& out) {
  return varint_decode(frame, pos, out) == VarintStatus::kOk;
}

void put_bytes(std::string& out, const std::string& bytes) {
  varint_append(out, bytes.size());
  out += bytes;
}

bool get_bytes(const std::string& frame, std::size_t& pos, std::string& out) {
  std::uint64_t len = 0;
  if (!get_varint(frame, pos, len)) return false;
  if (frame.size() - pos < len) return false;
  out.assign(frame, pos, static_cast<std::size_t>(len));
  pos += static_cast<std::size_t>(len);
  return true;
}

}  // namespace

std::string request_to_osnb(const Request& req) {
  std::uint8_t flags = 0;
  for (const FieldSpec& f : kFields)
    if (f.osnb_flag != 0 && present(req, f)) flags |= f.osnb_flag;
  std::string out(1, static_cast<char>(kTagRequest));
  for (const FieldSpec& f : kFields) {
    if ((flags & f.osnb_flag) != f.osnb_flag) continue;  // an absent flag row
    switch (f.kind) {
      case kOp: out += {static_cast<char>(req.op), static_cast<char>(flags)}; break;
      case kU64: varint_append(out, *field_u64(req, f)); break;
      case kString: put_bytes(out, string_member(req, f)); break;
      case kMsPair:
        put_f64(out, req.window_from_ms);
        put_f64(out, req.window_to_ms);
        break;
    }
  }
  return out;
}

std::optional<Request> parse_request_osnb(const std::string& frame,
                                          std::string& error) {
  std::size_t pos = 0;
  std::uint8_t tag = 0;
  if (!get_u8(frame, pos, tag) || tag != kTagRequest) {
    error = "not an OSNB request frame";
    return std::nullopt;
  }
  Request req;
  std::uint8_t op = 0;
  std::uint8_t flags = 0;
  bool in_header = true;  // the rows up to the op and its flags byte
  for (const FieldSpec& f : kFields) {
    std::optional<std::uint64_t> value;
    bool ok = true;
    if ((flags & f.osnb_flag) == f.osnb_flag) {
      switch (f.kind) {
        case kOp: ok = get_u8(frame, pos, op) && get_u8(frame, pos, flags); break;
        case kU64: ok = get_varint(frame, pos, value.emplace()); break;
        case kString: ok = get_bytes(frame, pos, string_member(req, f)); break;
        case kMsPair:
          ok = get_f64(frame, pos, req.window_from_ms) &&
               get_f64(frame, pos, req.window_to_ms);
          req.has_window = true;
          break;
      }
    }
    if (!ok) {
      error = in_header ? "truncated request header" : "truncated " + std::string(f.key) + " field";
      return std::nullopt;
    }
    if (f.kind == kOp) {
      in_header = false;
      if (op >= std::size(kOps) || (flags & ~kKnownFlags) != 0) {
        error = op >= std::size(kOps) ? "unknown op: " + std::to_string(op)
                                      : "unknown request flags";
        return std::nullopt;
      }
      req.op = static_cast<Op>(op);
    }
    if (!check_field(f, value, req, error)) return std::nullopt;
  }
  if (pos != frame.size()) {
    error = "trailing bytes after request";
    return std::nullopt;
  }
  return req;
}

std::string response_to_osnb(const Response& resp) {
  std::string out;
  out += static_cast<char>(kTagResponse);
  varint_append(out, resp.id);
  out += static_cast<char>(resp.ok ? 1 : 0);
  if (resp.ok) {
    put_bytes(out, resp.payload);
  } else {
    put_bytes(out, resp.error);
    put_bytes(out, resp.message);
  }
  return out;
}

std::optional<Response> parse_response_osnb(const std::string& frame) {
  std::size_t pos = 0;
  std::uint8_t tag = 0;
  std::uint8_t ok_byte = 0;
  Response r;
  if (!get_u8(frame, pos, tag) || tag != kTagResponse) return std::nullopt;
  if (!get_varint(frame, pos, r.id) || !get_u8(frame, pos, ok_byte))
    return std::nullopt;
  if (ok_byte > 1) return std::nullopt;
  r.ok = ok_byte == 1;
  if (r.ok) {
    if (!get_bytes(frame, pos, r.payload)) return std::nullopt;
  } else {
    if (!get_bytes(frame, pos, r.error)) return std::nullopt;
    if (!get_bytes(frame, pos, r.message)) return std::nullopt;
  }
  if (pos != frame.size()) return std::nullopt;
  return r;
}

}  // namespace osn::serve
