#include "common/flag_value.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace osn {

std::optional<std::uint64_t> parse_u64(const std::string& text, std::uint64_t lo,
                                       std::uint64_t hi) {
  // from_chars into an unsigned type takes digits only: no sign, no space.
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < lo || v > hi) return std::nullopt;
  return v;
}

std::optional<double> parse_double(const std::string& text) {
  // strtod would skip leading whitespace; the whole text must be the number.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) != 0) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(v)) return std::nullopt;
  return v;
}

std::uint64_t flag_u64(const std::string& flag, const std::string& text, std::uint64_t lo,
                       std::uint64_t hi) {
  if (const auto v = parse_u64(text, lo, hi)) return *v;
  const std::string range = hi == kU64Max ? ">= " + std::to_string(lo)
                                          : "in [" + std::to_string(lo) + ", " +
                                                std::to_string(hi) + "]";
  std::fprintf(stderr, "error: %s expects a whole number %s, got '%s'\n", flag.c_str(),
               range.c_str(), text.c_str());
  std::exit(2);
}

double flag_double(const std::string& flag, const std::string& text) {
  if (const auto v = parse_double(text)) return *v;
  std::fprintf(stderr, "error: %s expects a finite number, got '%s'\n", flag.c_str(),
               text.c_str());
  std::exit(2);
}

}  // namespace osn
