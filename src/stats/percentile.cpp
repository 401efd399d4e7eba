#include "stats/percentile.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace osn::stats {

double exact_quantile(std::vector<double> data, double q) {
  OSN_ASSERT_MSG(!data.empty(), "quantile of empty data");
  OSN_ASSERT(q >= 0.0 && q <= 1.0);
  std::sort(data.begin(), data.end());
  const double h = q * static_cast<double>(data.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, data.size() - 1);
  const double frac = h - static_cast<double>(lo);
  return data[lo] + frac * (data[hi] - data[lo]);
}

}  // namespace osn::stats
