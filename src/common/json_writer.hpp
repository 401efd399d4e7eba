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
// An empty container is `{}` or `[]` in every layout. Values append straight
// into one std::string: no streams, no temporary string per value.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
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

  /// `layout` is the top-level container's.
  explicit JsonWriter(Layout layout) : top_(layout) {}

  JsonWriter& begin_object() { return open('{', inherited()); }
  JsonWriter& begin_object(Layout layout) { return open('{', layout); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('[', inherited()); }
  JsonWriter& end_array() { return close(']'); }

  /// The next member's name (inside an object). Names are program
  /// constants (literals, op, activity and category names) and are written
  /// as they are; only values go through the escaper.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& value(T v) {
    char buf[24];
    return raw(std::string_view(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr));
  }
  JsonWriter& value(Fixed f);
  JsonWriter& value(Number n);

  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
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
  void next_item();
  JsonWriter& raw(std::string_view text);
  JsonWriter& open(char bracket, Layout layout);
  JsonWriter& close(char bracket);

  std::string out_;
  std::vector<Frame> stack_;
  Layout top_;
  bool after_key_ = false;  ///< a key was written; its value needs no separator
};

}  // namespace osn
