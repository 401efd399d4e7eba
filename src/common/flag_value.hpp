// Checked numbers for command-line flag values.
//
// atoi/strtoull would read "12x" as 12, "abc" as 0 and "-1" as 2^64-1,
// handing a typo to an assertion, a port cast or a thread pool. Every numeric
// flag of osn-analyze, osn-served and osn-monitord goes through
// flag_u64/flag_double: the whole value must be the number, inside the
// flag's bounds, or the tool prints `error: --<flag> expects ...` and exits 2.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

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

}  // namespace osn
