// The command line of osn-analyze, osn-served, osn-monitord and osn-lint:
// each lists its flags in one table and parses argv with Args, so all four
// follow one rule set.
//
// atoi/strtoull would read "12x" as 12, "abc" as 0 and "-1" as 2^64-1,
// handing a typo to an assertion, a port cast or a thread pool. Every numeric
// flag goes through flag_u64/flag_double: the whole value must be the number,
// inside the flag's bounds, or the tool prints `error: --<flag> expects ...`
// and exits 2.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace osn {

inline constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
/// Most worker threads a --jobs or --workers flag may start.
inline constexpr std::uint64_t kMaxFlagThreads = 1024;

/// `text` as a decimal integer in [lo, hi] (digits only: no sign, space or
/// suffix), or nullopt.
std::optional<std::uint64_t> parse_u64(const std::string& text, std::uint64_t lo = 0,
                                       std::uint64_t hi = kU64Max);
/// `text` as a finite double (strtod syntax, the whole text), or nullopt.
std::optional<double> parse_double(const std::string& text);

/// The value of `flag` (spelled as typed, e.g. "--width") through
/// parse_u64/parse_double; on failure prints the error and exits 2.
std::uint64_t flag_u64(const std::string& flag, const std::string& text,
                       std::uint64_t lo = 0, std::uint64_t hi = kU64Max);
double flag_double(const std::string& flag, const std::string& text);

/// A switch takes nothing; a value flag always takes the next argv, even one
/// that begins with '-'; an optional value takes it unless it begins with '-'.
enum class Takes : std::uint8_t { kNothing, kValue, kOptional };

struct Flag {  ///< one row of a tool's flag table; the name has no dashes
  std::string_view name;
  Takes takes;
};

/// argv[1, argc) parsed against a flag table; `-name` and `--name` are one
/// flag, and anything not starting with '-' is a positional. An unknown flag,
/// or a value flag at the end of argv, prints the error and exits 2.
class Args {
 public:
  Args(int argc, char** argv, std::span<const Flag> flags);

  bool has(const std::string& key) const { return options_.contains(key); }
  /// The last value given for `key`; `fallback` when absent. A value flag's
  /// '' is a value; a switch, or an optional value left out or given as '',
  /// reads as `fallback`.
  std::string get(const std::string& key, const std::string& fallback = "") const;
  /// Every value given for `key`, in argv order.
  std::vector<std::string> all(const std::string& key) const;
  /// Checked numbers: a malformed, empty or out-of-range value exits 2 with
  /// `error: --<key> ...`.
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback, std::uint64_t lo = 0,
                        std::uint64_t hi = kU64Max) const {
    return has(key) ? flag_u64("--" + key, get(key), lo, hi) : fallback;
  }
  double get_double(const std::string& key, double fallback) const {
    return has(key) ? flag_double("--" + key, get(key)) : fallback;
  }
  /// A count of `unit`s (ms, us, MiB), times `unit`; bounded so the product
  /// cannot wrap. `fallback` is in units.
  std::uint64_t get_scaled(const std::string& key, std::uint64_t fallback, std::uint64_t unit,
                           std::uint64_t lo = 0) const {
    return get_u64(key, fallback, lo, kU64Max / unit) * unit;
  }
  const std::vector<std::string>& positionals() const { return positionals_; }
  /// A stray positional, in a tool that takes none, exits 2.
  void reject_positionals() const;

 private:
  std::map<std::string, std::vector<std::string>> options_;
  std::vector<std::string> valued_;  ///< the Takes::kValue flags given
  std::vector<std::string> positionals_;
};

}  // namespace osn
