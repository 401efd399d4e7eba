// Checked flag numbers: the whole value must be a number inside the flag's
// bounds, or the tool exits 2 naming the flag. The bounds are exercised here
// through the helper, so no tool ever has to start a huge thread count to
// show that one is refused.
#include <gtest/gtest.h>

#include "common/flag_value.hpp"

namespace osn {
namespace {

TEST(FlagValue, ParsesWholeDecimals) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"), kU64Max);
  EXPECT_EQ(parse_double("2.5"), 2.5);
  EXPECT_EQ(parse_double("-1e3"), -1000.0);
}

TEST(FlagValue, RejectsMalformedText) {
  for (const char* bad : {"", "abc", "1x", "-1", "+1", " 1", "1 ", "0x10", "1.5",
                          "18446744073709551616"})
    EXPECT_FALSE(parse_u64(bad).has_value()) << "'" << bad << "'";
  for (const char* bad : {"", "x", "2x", " 2", "\n2", "nan", "inf", "-inf", "1e999"})
    EXPECT_FALSE(parse_double(bad).has_value()) << "'" << bad << "'";
}

TEST(FlagValue, AppliesBounds) {
  EXPECT_FALSE(parse_u64("0", 1).has_value());
  EXPECT_EQ(parse_u64("1", 1), 1u);
  // Ports: 70000 must not wrap to 4464.
  EXPECT_EQ(parse_u64("65535", 0, 65535), 65535u);
  EXPECT_FALSE(parse_u64("65536", 0, 65535).has_value());
  EXPECT_FALSE(parse_u64("70000", 0, 65535).has_value());
  // Thread counts: capped, and "-1" is not SIZE_MAX.
  EXPECT_EQ(parse_u64("1024", 0, kMaxFlagThreads), kMaxFlagThreads);
  EXPECT_FALSE(parse_u64("1025", 0, kMaxFlagThreads).has_value());
  EXPECT_FALSE(parse_u64("-1", 0, kMaxFlagThreads).has_value());
  EXPECT_FALSE(parse_u64("18446744073709551615", 0, kMaxFlagThreads).has_value());
}

TEST(FlagValue, BadValueExitsTwoNamingTheFlag) {
  EXPECT_EQ(flag_u64("--width", "7", 1), 7u);
  EXPECT_EQ(flag_double("--sigma", "4"), 4.0);
  EXPECT_EXIT(flag_u64("--width", "0", 1), ::testing::ExitedWithCode(2),
              "error: --width expects a whole number >= 1, got '0'");
  EXPECT_EXIT(flag_u64("--workers", "2000", 0, kMaxFlagThreads), ::testing::ExitedWithCode(2),
              "error: --workers expects a whole number in \\[0, 1024\\], got '2000'");
  EXPECT_EXIT(flag_double("--speed", "fast"), ::testing::ExitedWithCode(2),
              "error: --speed expects a finite number, got 'fast'");
}

}  // namespace
}  // namespace osn
