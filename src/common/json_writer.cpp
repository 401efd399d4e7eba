#include "common/json_writer.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/assert.hpp"

namespace osn {

namespace {

/// Length of the well-formed UTF-8 sequence led by the non-ASCII byte s[i],
/// or 0 when it is ill-formed (RFC 3629: a lone continuation byte, a
/// truncated sequence, an overlong encoding, a surrogate, or > U+10FFFF).
std::size_t utf8_sequence_len(std::string_view s, std::size_t i) {
  const auto byte = [&](std::size_t k) { return static_cast<unsigned char>(s[i + k]); };
  const std::size_t len = byte(0) >= 0xF0 ? 4 : byte(0) >= 0xE0 ? 3 : 2;
  if (byte(0) < 0xC2 || byte(0) > 0xF4 || i + len > s.size()) return 0;
  std::uint32_t cp = byte(0) & (0x3Fu >> (len - 1));
  for (std::size_t k = 1; k < len; ++k) {
    if ((byte(k) & 0xC0) != 0x80) return 0;
    cp = (cp << 6) | (byte(k) & 0x3Fu);
  }
  constexpr std::uint32_t kMinCodePoint[] = {0, 0, 0x80, 0x800, 0x10000};
  if (cp < kMinCodePoint[len] || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) return 0;
  return len;
}

/// Printable ASCII other than '"' and '\\': the bytes copied without a look.
constexpr auto kPlain = [] {
  std::array<bool, 256> plain{};
  for (int b = 0x20; b < 0x80; ++b) plain[static_cast<std::size_t>(b)] = b != '"' && b != '\\';
  return plain;
}();

void append_escaped(std::string& out, std::string_view s) {
  std::size_t run = 0;  // start of the pending run that needs no escape
  std::size_t i = 0;
  while (i < s.size()) {
    const auto byte = static_cast<unsigned char>(s[i]);
    if (kPlain[byte]) {
      ++i;
      continue;
    }
    // Well-formed UTF-8 passes through verbatim; any other byte (hostile
    // task/file names are arbitrary bytes) would make the whole document
    // invalid JSON, so it is escaped below as \u00xx — valid output that
    // still shows the byte value.
    const std::size_t len = byte >= 0x80 ? utf8_sequence_len(s, i) : 0;
    if (len > 0) {
      i += len;
      continue;
    }
    out.append(s, run, i - run);
    switch (byte) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {  // RFC 8259 §7: the other control characters, and bad bytes
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
        out += buf;
      }
    }
    run = ++i;
  }
  out.append(s, run);
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  append_escaped(out, s);
  return out;
}

void JsonWriter::next_item() {
  if (std::exchange(after_key_, false) || stack_.empty()) return;
  Frame& frame = stack_.back();
  if (frame.layout == Layout::kBlock) {
    out_ += frame.empty ? "\n" : ",\n";
    out_.append(2 * stack_.size(), ' ');
  } else if (!frame.empty) {
    out_ += frame.layout == Layout::kInline ? ", " : ",";
  }
  frame.empty = false;
}

JsonWriter& JsonWriter::raw(std::string_view text) {
  next_item();
  out_ += text;
  return *this;
}

JsonWriter& JsonWriter::open(char bracket, Layout layout) {
  next_item();
  out_ += bracket;
  stack_.push_back(Frame{layout});
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  OSN_ASSERT_MSG(!stack_.empty() && !after_key_, "JsonWriter: unbalanced close");
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (frame.layout == Layout::kBlock && !frame.empty) {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }
  out_ += bracket;
  if (frame.layout == Layout::kBlock && stack_.empty()) out_ += '\n';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  OSN_ASSERT_MSG(!stack_.empty() && !after_key_, "JsonWriter: key outside an object");
  next_item();
  out_ += '"';
  out_ += name;
  out_ += stack_.back().layout == Layout::kCompact ? "\":" : "\": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  next_item();
  out_ += '"';
  append_escaped(out_, s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(Fixed f) {
  char buf[400];  // "%.*f" of DBL_MAX has 309 digits before the point
  std::snprintf(buf, sizeof(buf), "%.*f", f.prec, f.v);
  return raw(buf);
}

JsonWriter& JsonWriter::value(Number n) {
  char buf[32];
  const bool integral = n.v == std::floor(n.v) && std::abs(n.v) < 9.0e15;
  std::snprintf(buf, sizeof(buf), integral ? "%.0f" : "%.17g", n.v);
  return raw(buf);
}

std::string JsonWriter::take() && {
  OSN_ASSERT_MSG(stack_.empty() && !after_key_, "JsonWriter: unclosed container");
  return std::move(out_);
}

}  // namespace osn
