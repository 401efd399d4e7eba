// Exact percentiles (sorting), backing the per-figure statistics.
#pragma once

#include <vector>

namespace osn::stats {

/// Exact quantile of a data set (linear interpolation between order
/// statistics, the "R-7" definition used by numpy). Copies and sorts.
double exact_quantile(std::vector<double> data, double q);

}  // namespace osn::stats
