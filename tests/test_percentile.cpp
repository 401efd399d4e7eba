#include <gtest/gtest.h>

#include <vector>

#include "stats/percentile.hpp"

namespace osn::stats {
namespace {

TEST(ExactQuantile, SingleElement) {
  EXPECT_EQ(exact_quantile({42.0}, 0.0), 42.0);
  EXPECT_EQ(exact_quantile({42.0}, 0.5), 42.0);
  EXPECT_EQ(exact_quantile({42.0}, 1.0), 42.0);
}

TEST(ExactQuantile, EndpointsAreMinMax) {
  std::vector<double> data{5, 1, 9, 3};
  EXPECT_EQ(exact_quantile(data, 0.0), 1.0);
  EXPECT_EQ(exact_quantile(data, 1.0), 9.0);
}

TEST(ExactQuantile, MedianInterpolates) {
  EXPECT_DOUBLE_EQ(exact_quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(exact_quantile({1, 2, 3}, 0.5), 2.0);
}

TEST(ExactQuantile, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(exact_quantile({9, 1, 5}, 0.5), 5.0);
}

TEST(ExactQuantile, EmptyDies) {
  EXPECT_DEATH(exact_quantile({}, 0.5), "empty");
}

}  // namespace
}  // namespace osn::stats
