// The one JSON writer: every document, wire line and lint report the tree
// emits is built here, so punctuation, escaping and number formats are
// decided in one place (DESIGN.md §9.3). Three layouts, chosen per container
// and inherited by the containers nested in it unless they name their own:
//
//   kBlock    one member per line, indented 2 spaces per depth; a top-level
//             block document ends in "}\n"        (export, serve, monitor)
//   kInline   {"k": v, "k2": v2}                   (rows inside a block)
//   kCompact  {"k":v,"k2":v2}                      (both wires, osn-lint)
//
// An empty container is `{}` or `[]` in every layout. Values are written
// straight into one std::string: no streams, no temporary string per value.
// A member named by a literal is one copy of its prefix, whose separator,
// quotes and colon are spelled out at compile time (JsonWriter::Key), plus
// its value formatted in place. A renderer that knows its row count can
// reserve() the document's final size up front.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace osn {

/// RFC 8259 string escaping: quotes, backslashes and control characters are
/// escaped, well-formed UTF-8 passes through verbatim, and ill-formed bytes
/// (hostile names) are escaped as \u00xx so the document stays valid JSON.
std::string json_escape(std::string_view s);

class JsonWriter {
 public:
  enum class Layout : std::uint8_t { kBlock, kInline, kCompact };

  /// A double with `prec` decimals ("%.*f", as fmt_fixed).
  struct Fixed {
    double v;
    int prec;
  };
  /// The wire's double rule: an integral value below 9e15 prints as an
  /// integer ("1000", not "1000.0"), anything else as "%.17g".
  struct Number {
    double v;
  };

  /// A member name known at compile time, with the bytes that lead it in
  /// each layout built once: `, "name": ` (an inline member; the block
  /// layout and a first member use its tail `"name": `) and `,"name":`
  /// (compact; a first member drops the comma). Converts implicitly from a
  /// string literal, so `field("count", n)` names a Key.
  class Key {
   public:
    static constexpr std::size_t kMaxName = 24;

    template <std::size_t N>
    consteval Key(const char (&name)[N])  // implicit: a literal names a Key
        : len_(static_cast<std::uint8_t>(N - 1)) {
      static_assert(N - 1 <= kMaxName, "JsonWriter::Key: name too long");
      const auto spell = [&name](char* out, std::string_view sep, std::string_view colon) {
        for (char c : sep) *out++ = c;
        *out++ = '"';
        for (std::size_t i = 0; i + 1 < N; ++i) *out++ = name[i];
        *out++ = '"';
        for (char c : colon) *out++ = c;
      };
      spell(spaced_, ", ", ": ");
      spell(compact_, ",", ":");
    }

   private:
    friend class JsonWriter;
    /// The longest prefix, `, "<kMaxName chars>": `. Every prefix is copied
    /// as this many bytes from offset 0, 1 or 2 of its zero-padded array
    /// (a fixed-size copy), and the writer advances by the prefix's length.
    static constexpr std::size_t kCopy = kMaxName + 6;

    char spaced_[kCopy + 2]{};
    char compact_[kCopy + 2]{};
    std::uint8_t len_;
  };

  /// `layout` is the top-level container's.
  explicit JsonWriter(Layout layout) : top_(layout) {}

  /// Reserves `bytes` for the document: a renderer's upper bound from its
  /// row count, so the text is never copied to grow and pages past what is
  /// written are never touched. take() checks that the bound held.
  JsonWriter& reserve(std::size_t bytes) {
    out_.reserve(bytes);
    reserved_ = bytes;
    return *this;
  }

  JsonWriter& begin_object() { return open('{', inherited()); }
  JsonWriter& begin_object(Layout layout) { return open('{', layout); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('[', inherited()); }
  JsonWriter& end_array() { return close(']'); }

  /// The next member's name (inside an object). Names are program
  /// constants (literals, op, activity and category names) and are written
  /// as they are; only values go through the escaper. dynamic_key takes a
  /// name that is only known at run time (an activity or op name).
  JsonWriter& key(const Key& name);
  JsonWriter& dynamic_key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& value(T v) {
    constexpr std::size_t kDigits = 24;  // a 64-bit integer with its sign
    next_item();
    char* at = room(kDigits);
    size_ += static_cast<std::size_t>(std::to_chars(at, at + kDigits, v).ptr - at);
    return *this;
  }
  JsonWriter& value(Fixed f);
  JsonWriter& value(Number n);

  /// One member: `field("count", n)`. A name only known at run time goes
  /// through `dynamic_key(name).value(v)`.
  template <typename T>
  JsonWriter& field(const Key& name, const T& v) {
    return key(name).value(v);
  }

  /// The finished text; every container must be closed.
  std::string take() &&;

 private:
  struct Frame {
    Layout layout;
    bool empty = true;
  };

  Layout inherited() const { return stack_.empty() ? top_ : stack_.back().layout; }
  /// Writes the separator and indentation the next member or element needs.
  void next_item() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!stack_.empty()) separate();
  }
  void separate();
  /// A line break (after a comma when `comma`) indented to `depth`.
  void put_break(bool comma, std::size_t depth);
  JsonWriter& raw(std::string_view text);
  JsonWriter& open(char bracket, Layout layout);
  JsonWriter& close(char bracket);

  /// Room for `n` more bytes at the write position. The string's length
  /// runs ahead of size_ by at most a page of zeros, so a write is a plain
  /// copy and only pages about to be written are touched; take() trims it.
  char* room(std::size_t n) {
    if (out_.size() - size_ < n) grow(n);
    return out_.data() + size_;
  }
  void grow(std::size_t n);
  void put(std::string_view text) {
    if (text.empty()) return;  // an empty view may carry no pointer at all
    std::memcpy(room(text.size()), text.data(), text.size());
    size_ += text.size();
  }
  void put(char c) {
    *room(1) = c;
    ++size_;
  }

  std::string out_;           ///< the text [0, size_), then slack
  std::size_t size_ = 0;      ///< bytes written
  std::size_t reserved_ = 0;  ///< reserve()'s bound; 0 when none was given
  std::vector<Frame> stack_;
  Layout top_;
  bool after_key_ = false;  ///< a key was written; its value needs no separator
};

}  // namespace osn
