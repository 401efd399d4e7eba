#include "common/flag_value.hpp"

#include <algorithm>
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

namespace {

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(2);
}

}  // namespace

std::uint64_t flag_u64(const std::string& flag, const std::string& text, std::uint64_t lo,
                       std::uint64_t hi) {
  if (const auto v = parse_u64(text, lo, hi)) return *v;
  const std::string range = hi == kU64Max ? ">= " + std::to_string(lo)
                                          : "in [" + std::to_string(lo) + ", " +
                                                std::to_string(hi) + "]";
  fail(flag + " expects a whole number " + range + ", got '" + text + "'");
}

double flag_double(const std::string& flag, const std::string& text) {
  if (const auto v = parse_double(text)) return *v;
  fail(flag + " expects a finite number, got '" + text + "'");
}

Args::Args(int argc, char** argv, std::span<const Flag> flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      positionals_.push_back(arg);
      continue;
    }
    const std::string key = arg.substr(arg.rfind("--", 0) == 0 ? 2 : 1);
    const auto flag =
        std::find_if(flags.begin(), flags.end(), [&key](const Flag& f) { return f.name == key; });
    if (flag == flags.end()) fail("unknown option --" + key);
    const bool has_next = i + 1 < argc;
    if (flag->takes == Takes::kValue && !has_next) fail("--" + key + " expects a value");
    const bool consume = flag->takes == Takes::kValue ||
                         (flag->takes == Takes::kOptional && has_next && argv[i + 1][0] != '-');
    options_[key].push_back(consume ? argv[++i] : "");
    if (flag->takes == Takes::kValue) valued_.push_back(key);
  }
}

std::string Args::get(const std::string& key, const std::string& fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const bool valued = std::find(valued_.begin(), valued_.end(), key) != valued_.end();
  return valued || !it->second.back().empty() ? it->second.back() : fallback;
}

std::vector<std::string> Args::all(const std::string& key) const {
  const auto it = options_.find(key);
  return it == options_.end() ? std::vector<std::string>{} : it->second;
}

void Args::reject_positionals() const {
  if (!positionals_.empty()) fail("unexpected argument '" + positionals_.front() + "'");
}

}  // namespace osn
