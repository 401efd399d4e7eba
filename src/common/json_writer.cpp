#include "common/json_writer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>

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

/// Writes `s` escaped, as runs of text handed to `emit`.
template <class Emit>
void escape_into(std::string_view s, Emit&& emit) {
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
    emit(s.substr(run, i - run));
    switch (byte) {
      case '"': emit("\\\""); break;
      case '\\': emit("\\\\"); break;
      case '\b': emit("\\b"); break;
      case '\f': emit("\\f"); break;
      case '\n': emit("\\n"); break;
      case '\r': emit("\\r"); break;
      case '\t': emit("\\t"); break;
      default: {  // RFC 8259 §7: the other control characters, and bad bytes
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
        emit(std::string_view(buf));
      }
    }
    run = ++i;
  }
  emit(s.substr(run));
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  escape_into(s, [&out](std::string_view piece) { out += piece; });
  return out;
}

void JsonWriter::grow(std::size_t n) {
  // At most a page (or the text so far, if shorter) ahead of the write
  // position, and never past a reserved capacity that still holds `n`.
  const std::size_t step = std::clamp<std::size_t>(size_, 64, 4096);
  std::size_t length = std::max(size_ + n, size_ + step);
  if (size_ + n <= out_.capacity()) length = std::min(length, out_.capacity());
  out_.resize(length);
}

void JsonWriter::put_break(bool comma, std::size_t depth) {
  static constexpr std::string_view kBreak =
      ",\n                                                                ";
  constexpr std::size_t kSpaces = kBreak.size() - 2;
  std::size_t spaces = 2 * depth;
  std::size_t n = std::min(spaces, kSpaces);
  put(kBreak.substr(comma ? 0 : 1, (comma ? 2 : 1) + n));
  for (spaces -= n; spaces > 0; spaces -= n) {
    n = std::min(spaces, kSpaces);
    put(kBreak.substr(2, n));
  }
}

void JsonWriter::separate() {
  Frame& frame = stack_.back();
  if (frame.layout == Layout::kBlock) {
    put_break(!frame.empty, stack_.size());
  } else if (!frame.empty) {
    put(frame.layout == Layout::kInline ? ", " : ",");
  }
  frame.empty = false;
}

JsonWriter& JsonWriter::raw(std::string_view text) {
  next_item();
  put(text);
  return *this;
}

JsonWriter& JsonWriter::open(char bracket, Layout layout) {
  next_item();
  put(bracket);
  stack_.push_back(Frame{layout});
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  OSN_ASSERT_MSG(!stack_.empty() && !after_key_, "JsonWriter: unbalanced close");
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (frame.layout == Layout::kBlock && !frame.empty) put_break(false, stack_.size());
  put(bracket);
  if (frame.layout == Layout::kBlock && stack_.empty()) put('\n');
  return *this;
}

JsonWriter& JsonWriter::dynamic_key(std::string_view name) {
  OSN_ASSERT_MSG(!stack_.empty() && !after_key_, "JsonWriter: key outside an object");
  next_item();
  put('"');
  put(name);
  put(stack_.back().layout == Layout::kCompact ? "\":" : "\": ");
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(const Key& name) {
  OSN_ASSERT_MSG(!stack_.empty() && !after_key_, "JsonWriter: key outside an object");
  Frame& frame = stack_.back();
  const char* prefix = nullptr;
  std::size_t length = name.len_;
  switch (frame.layout) {
    case Layout::kBlock:
      next_item();
      prefix = name.spaced_ + 2;
      length += 4;
      break;
    case Layout::kInline:
      prefix = name.spaced_ + (frame.empty ? 2 : 0);
      length += frame.empty ? 4 : 6;
      break;
    case Layout::kCompact:
      prefix = name.compact_ + (frame.empty ? 1 : 0);
      length += frame.empty ? 3 : 4;
      break;
  }
  std::memcpy(room(Key::kCopy), prefix, Key::kCopy);
  size_ += length;
  frame.empty = false;
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  next_item();
  put('"');
  escape_into(s, [this](std::string_view piece) { put(piece); });
  put('"');
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
  OSN_ASSERT_MSG(reserved_ == 0 || size_ <= reserved_,
                 "JsonWriter: the document outgrew its reserve() bound");
  out_.resize(size_);
  return std::move(out_);
}

}  // namespace osn
