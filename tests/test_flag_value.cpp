// The command line every tool parses. Checked flag numbers: the whole value
// must be a number inside the flag's bounds, or the tool exits 2 naming the
// flag. The bounds are exercised here through the helper, so no tool ever has
// to start a huge thread count to show that one is refused. Args: the one
// rule set for switches, value flags, optional values, repeats, positionals
// and the two argv errors.
#include <gtest/gtest.h>

#include <string>
#include <vector>

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

constexpr Flag kTestFlags[] = {
    {"jobs", Takes::kValue},
    {"json", Takes::kOptional},
    {"offline", Takes::kNothing},
    {"rule", Takes::kValue},
};

/// Args over `words`, as if typed after a program name.
Args parse(std::vector<std::string> words) {
  words.insert(words.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  return Args(static_cast<int>(argv.size()), argv.data(), kTestFlags);
}

using Words = std::vector<std::string>;

TEST(Args, SwitchNeverConsumesTheNextArgv) {
  const Args args = parse({"--offline", "t.osnt"});
  EXPECT_TRUE(args.has("offline"));
  EXPECT_EQ(args.get("offline", "unset"), "unset");
  EXPECT_EQ(args.positionals(), Words{"t.osnt"});
}

TEST(Args, ValueFlagConsumesADashPrefixedArgv) {
  const Args args = parse({"--jobs", "-1"});
  EXPECT_EQ(args.get("jobs"), "-1");
  EXPECT_TRUE(args.positionals().empty());
  EXPECT_EXIT(args.get_u64("jobs", 0, 0, kMaxFlagThreads), ::testing::ExitedWithCode(2),
              "error: --jobs expects a whole number in \\[0, 1024\\], got '-1'");
}

TEST(Args, OptionalValueTakesTheNextArgvUnlessItBeginsWithADash) {
  EXPECT_EQ(parse({"--json", "out.json"}).get("json"), "out.json");
  const Args before_flag = parse({"--json", "--jobs", "2"});
  EXPECT_TRUE(before_flag.has("json"));
  EXPECT_EQ(before_flag.get("json", "default.json"), "default.json");
  EXPECT_EQ(before_flag.get_u64("jobs", 0), 2u);
  const Args at_end = parse({"--json"});
  EXPECT_TRUE(at_end.has("json"));
  EXPECT_EQ(at_end.get("json", "default.json"), "default.json");
}

TEST(Args, EmptyValueIsMalformedUnlessTheValueIsOptional) {
  // `--jobs ''` is a value, not an absent flag: the numeric check sees it.
  const Args args = parse({"--jobs", "", "--json", ""});
  EXPECT_EQ(args.get("jobs", "unset"), "");
  EXPECT_EXIT(args.get_u64("jobs", 4), ::testing::ExitedWithCode(2),
              "error: --jobs expects a whole number >= 0, got ''");
  EXPECT_EXIT(args.get_double("jobs", 1.0), ::testing::ExitedWithCode(2),
              "error: --jobs expects a finite number, got ''");
  EXPECT_TRUE(args.has("json"));
  EXPECT_EQ(args.get("json", "default.json"), "default.json");
}

TEST(Args, RepeatedFlagKeepsEveryValueInOrderAndTheLastWins) {
  const Args args = parse({"--rule", "layering", "--jobs", "1", "--rule", "bare-assert",
                           "--jobs", "3"});
  EXPECT_EQ(args.all("rule"), (Words{"layering", "bare-assert"}));
  EXPECT_EQ(args.get("rule"), "bare-assert");
  EXPECT_EQ(args.get_u64("jobs", 0), 3u);
  EXPECT_TRUE(args.all("json").empty());
  EXPECT_EQ(args.get_u64("absent", 7), 7u);
}

TEST(Args, ScaledValueIsBoundedSoTheProductCannotWrap) {
  EXPECT_EQ(parse({"--jobs", "5"}).get_scaled("jobs", 2, 1000), 5000u);
  EXPECT_EQ(parse({}).get_scaled("jobs", 2, 1000), 2000u);
  EXPECT_EXIT(parse({"--jobs", "18446744073709552"}).get_scaled("jobs", 0, 1000),
              ::testing::ExitedWithCode(2),
              "error: --jobs expects a whole number in \\[0, 18446744073709551\\]");
}

TEST(Args, PositionalsKeepTheirOrder) {
  // `-name` is the same flag as `--name`.
  const Args args = parse({"a", "--jobs", "2", "b", "-offline", "c"});
  EXPECT_EQ(args.positionals(), (Words{"a", "b", "c"}));
  EXPECT_TRUE(args.has("offline"));
}

TEST(Args, UnknownFlagAndMissingValueExitTwo) {
  EXPECT_EXIT(parse({"--jbos", "2"}), ::testing::ExitedWithCode(2),
              "error: unknown option --jbos");
  EXPECT_EXIT(parse({"t.osnt", "--jobs"}), ::testing::ExitedWithCode(2),
              "error: --jobs expects a value");
  EXPECT_EXIT(parse({"--rule"}), ::testing::ExitedWithCode(2),
              "error: --rule expects a value");
}

TEST(Args, StrayPositionalExitsTwoWhereNoneAreTaken) {
  parse({"--offline"}).reject_positionals();
  EXPECT_EXIT(parse({"--offline", "extra"}).reject_positionals(), ::testing::ExitedWithCode(2),
              "error: unexpected argument 'extra'");
}

}  // namespace
}  // namespace osn
