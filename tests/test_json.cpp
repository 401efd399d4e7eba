#include <gtest/gtest.h>

#include "common/json_writer.hpp"
#include "export/json.hpp"
#include "trace_builder.hpp"

namespace osn::exporter {
namespace {

using osn::testing::TraceBuilder;
using trace::EventType;

TEST(JsonEscape, PassesPlainText) { EXPECT_EQ(json_escape("abc 123"), "abc 123"); }

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonEscape, EscapesAllControlCharacters) {
  // RFC 8259: every code point below 0x20 must be escaped — the short forms
  // where they exist, \u00xx otherwise.
  EXPECT_EQ(json_escape("a\bb"), "a\\bb");
  EXPECT_EQ(json_escape("a\fb"), "a\\fb");
  EXPECT_EQ(json_escape("a\rb"), "a\\rb");
  EXPECT_EQ(json_escape(std::string(1, '\x00')), "\\u0000");
  EXPECT_EQ(json_escape("\x1f"), "\\u001f");
  // DEL (0x7f) is not a JSON control character; it passes through.
  EXPECT_EQ(json_escape("\x7f"), "\x7f");
}

TEST(JsonEscape, WellFormedUtf8PassesVerbatim) {
  EXPECT_EQ(json_escape("caf\xC3\xA9"), "caf\xC3\xA9");            // 2-byte é
  EXPECT_EQ(json_escape("\xE2\x82\xAC"), "\xE2\x82\xAC");          // 3-byte €
  EXPECT_EQ(json_escape("\xF0\x9F\x98\x80"), "\xF0\x9F\x98\x80");  // 4-byte emoji
}

TEST(JsonEscape, IllFormedBytesAreEscaped) {
  // A hostile task name must never produce an invalid JSON document: every
  // ill-formed byte is escaped individually as \u00xx.
  EXPECT_EQ(json_escape("\xFF"), "\\u00ff");              // never valid in UTF-8
  EXPECT_EQ(json_escape("\xC3 x"), "\\u00c3 x");          // truncated 2-byte seq
  EXPECT_EQ(json_escape("\xC0\xAF"), "\\u00c0\\u00af");   // overlong encoding
  EXPECT_EQ(json_escape("\xE0\x80\x80"), "\\u00e0\\u0080\\u0080");  // overlong
  EXPECT_EQ(json_escape("\xED\xA0\x80"), "\\u00ed\\u00a0\\u0080");  // surrogate
  EXPECT_EQ(json_escape("\xF5\x80\x80\x80"),
            "\\u00f5\\u0080\\u0080\\u0080");  // > U+10FFFF
  // A valid sequence right after an invalid byte still passes through.
  EXPECT_EQ(json_escape("\x80\xC3\xA9"), "\\u0080\xC3\xA9");
}

TEST(SummaryJson, ContainsMetadataAndActivities) {
  TraceBuilder b(2);
  b.task(1, "rank0", true).task(9, "rpciod", false, true);
  b.pair(0, 100, 2'278, 1, EventType::kIrqEntry, 0);
  b.pair(0, 5'000, 7'913, 1, EventType::kPageFaultEntry, 0);
  const auto model = b.build(kNsPerSec);
  noise::NoiseAnalysis analysis(model);
  const std::string json = summary_json(analysis);

  EXPECT_NE(json.find("\"workload\": \"test\""), std::string::npos);
  EXPECT_NE(json.find("\"duration_ns\": 1000000000"), std::string::npos);
  EXPECT_NE(json.find("\"cpus\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"timer_interrupt\""), std::string::npos);
  EXPECT_NE(json.find("\"page_fault\""), std::string::npos);
  EXPECT_NE(json.find("\"max_ns\": 2913"), std::string::npos);
  EXPECT_NE(json.find("\"rank0\""), std::string::npos);
  // Total noise of rank0: 2178 + 2913.
  EXPECT_NE(json.find("\"total_noise_ns\": 5091"), std::string::npos);
}

TEST(SummaryJson, BalancedBracesAndQuotes) {
  TraceBuilder b(1);
  b.task(1, "app", true);
  b.pair(0, 10, 20, 1, EventType::kIrqEntry, 0);
  const auto model = b.build(1'000);
  noise::NoiseAnalysis analysis(model);
  const std::string json = summary_json(analysis);
  long depth = 0;
  std::size_t quotes = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (ch == '"' && (i == 0 || json[i - 1] != '\\')) {
      in_string = !in_string;
      ++quotes;
    }
    if (in_string) continue;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(quotes % 2, 0u);
  EXPECT_FALSE(in_string);
}

TEST(SummaryJson, EmptyAnalysisStillValidShape) {
  const auto model = TraceBuilder(1).task(1, "app", true).build(100);
  noise::NoiseAnalysis analysis(model);
  const std::string json = summary_json(analysis);
  EXPECT_NE(json.find("\"noise_intervals\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"activities\": {"), std::string::npos);
}

}  // namespace
}  // namespace osn::exporter
