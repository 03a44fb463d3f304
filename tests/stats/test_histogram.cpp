#include "pcn/stats/histogram.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "pcn/common/error.hpp"

namespace pcn::stats {
namespace {

TEST(Histogram, EmptyHistogramRefusesStatistics) {
  const Histogram h;
  EXPECT_EQ(h.total(), 0);
  EXPECT_EQ(h.bucket_count(), 0);
  EXPECT_THROW(h.fraction(0), InvalidArgument);
  EXPECT_THROW(h.mean(), InvalidArgument);
  EXPECT_THROW(h.max_value(), InvalidArgument);
  EXPECT_THROW(h.distribution(), InvalidArgument);
}

TEST(Histogram, CountsAndGrowsOnDemand) {
  Histogram h;
  h.add(0);
  h.add(3);
  h.add(3);
  EXPECT_EQ(h.total(), 3);
  EXPECT_EQ(h.bucket_count(), 4);
  EXPECT_EQ(h.count(0), 1);
  EXPECT_EQ(h.count(1), 0);
  EXPECT_EQ(h.count(3), 2);
  EXPECT_EQ(h.count(99), 0);  // never seen, no growth
  EXPECT_EQ(h.bucket_count(), 4);
}

TEST(Histogram, BulkAddWithCount) {
  Histogram h;
  h.add(2, 10);
  h.add(2, 5);
  EXPECT_EQ(h.count(2), 15);
  EXPECT_EQ(h.total(), 15);
  h.add(4, 0);  // zero count is a no-op on totals
  EXPECT_EQ(h.total(), 15);
}

TEST(Histogram, FractionAndDistribution) {
  Histogram h;
  h.add(0, 1);
  h.add(1, 3);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.25);
  EXPECT_DOUBLE_EQ(h.fraction(1), 0.75);
  EXPECT_DOUBLE_EQ(h.fraction(2), 0.0);
  const auto dist = h.distribution();
  ASSERT_EQ(dist.size(), 2u);
  EXPECT_DOUBLE_EQ(dist[0] + dist[1], 1.0);
}

TEST(Histogram, MeanIsTheWeightedAverage) {
  Histogram h;
  h.add(1, 2);
  h.add(4, 2);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
}

TEST(Histogram, MaxValueSkipsEmptyTrailingBuckets) {
  Histogram h;
  h.add(5);
  h.add(2);
  EXPECT_EQ(h.max_value(), 5);
}

TEST(Histogram, RejectsNegativeValuesAndCounts) {
  Histogram h;
  EXPECT_THROW(h.add(-1), InvalidArgument);
  EXPECT_THROW(h.add(1, -2), InvalidArgument);
  EXPECT_THROW(h.count(-1), InvalidArgument);
}

// count_percentile is the one histogram->quantile rule behind the daemon
// report, the simulator run report and trace analysis: the smallest k whose
// cumulative count reaches q * total.
TEST(Histogram, CountPercentileIsTheFirstCumulativeCrossing) {
  struct Case {
    std::vector<std::int64_t> counts;
    std::int64_t total;
    double quantile;
    int expected;
  };
  const Case cases[] = {
      // Empty: no mass, no crossing; defined as 0.
      {{}, 0, 0.5, 0},
      {{0, 0, 0}, 0, 0.99, 0},
      // All mass in the last bucket: every quantile lands there.
      {{0, 0, 0, 7}, 7, 0.01, 3},
      {{0, 0, 0, 7}, 7, 0.50, 3},
      {{0, 0, 0, 7}, 7, 1.00, 3},
      // q * total exactly on a cumulative boundary: the crossing bucket
      // (>=), not the next one.
      {{2, 2}, 4, 0.50, 0},
      {{1, 1, 2}, 4, 0.50, 1},
      {{5, 0, 5}, 10, 0.50, 0},
      {{25, 25, 25, 25}, 100, 0.75, 2},
      // Just past the boundary moves to the next non-empty bucket.
      {{5, 0, 5}, 10, 0.51, 2},
      // Counts that never reach the target fall back to the last index.
      {{1, 1}, 10, 0.99, 1},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(count_percentile(c.counts, c.total, c.quantile), c.expected)
        << "total " << c.total << " q " << c.quantile;
  }
}

}  // namespace
}  // namespace pcn::stats
