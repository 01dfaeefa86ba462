#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

#include "util/rng.h"

namespace flowsched {
namespace {

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.Add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStatsTest, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 0.37 - 3.0;
    all.Add(v);
    (i % 2 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StatsTest, PercentileNearestRank) {
  const std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 90.0), 5.0);
}

// Nearest rank without sorting: the smallest sample value with at least
// ceil(p% of n) values (at least one) at or below it.
double BruteForceNearestRank(const std::vector<double>& v, double p) {
  const auto want = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(p / 100.0 * static_cast<double>(v.size()))));
  double best = 0.0;
  bool found = false;
  for (double x : v) {
    const auto at_or_below = static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(), [&](double y) { return y <= x; }));
    if (at_or_below >= want && (!found || x < best)) {
      best = x;
      found = true;
    }
  }
  return best;
}

void ExpectPercentilesMatch(const std::vector<double>& v) {
  const std::vector<double> got =
      Percentiles(v, {0.0, 1.0, 50.0, 95.0, 99.0, 99.9, 100.0});
  const double ps[] = {0.0, 1.0, 50.0, 95.0, 99.0, 99.9, 100.0};
  ASSERT_EQ(got.size(), std::size(ps));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], Percentile(v, ps[i])) << "p=" << ps[i];
    EXPECT_EQ(got[i], BruteForceNearestRank(v, ps[i])) << "p=" << ps[i];
  }
}

TEST(StatsTest, PercentilesMatchPercentileOnRandomSamples) {
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> v(rng.UniformInt(1, 120));
    for (double& x : v) {
      // Half the trials draw from a few values so ties are common.
      x = trial % 2 == 0 ? rng.UniformReal() * 100.0 : rng.UniformInt(0, 4);
    }
    ExpectPercentilesMatch(v);
  }
}

TEST(StatsTest, PercentilesSingleValueAndDuplicates) {
  ExpectPercentilesMatch({7.5});
  EXPECT_EQ(Percentiles(std::vector<double>{7.5}, {0.0, 50.0, 100.0}),
            (std::vector<double>{7.5, 7.5, 7.5}));
  ExpectPercentilesMatch({3.0, 3.0, 3.0, 3.0});
  ExpectPercentilesMatch({2.0, 1.0, 2.0, 1.0, 2.0, 9.0});
  // Order of the requested percentiles is kept, endpoints included.
  const std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_EQ(Percentiles(v, {100.0, 0.0, 50.0, 90.0}),
            (std::vector<double>{5.0, 1.0, 3.0, 5.0}));
}

TEST(StatsTest, MeanAndMax) {
  const std::vector<double> v = {2.0, 8.0, 5.0};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_DOUBLE_EQ(Max(v), 8.0);
}

TEST(P2QuantileTest, EmptyAndSmallSamplesAreExact) {
  P2Quantile q(0.99);
  EXPECT_DOUBLE_EQ(q.Estimate(), 0.0);
  q.Add(7.0);
  EXPECT_DOUBLE_EQ(q.Estimate(), 7.0);
  q.Add(3.0);
  q.Add(5.0);
  q.Add(1.0);
  // Below five observations the estimate is the exact nearest-rank value.
  EXPECT_DOUBLE_EQ(q.Estimate(), 7.0);
  EXPECT_EQ(q.count(), 4u);
}

TEST(P2QuantileTest, MedianOfSmallSampleIsNearestRank) {
  P2Quantile q(0.5);
  q.Add(30.0);
  q.Add(10.0);
  q.Add(20.0);
  EXPECT_DOUBLE_EQ(q.Estimate(), 20.0);
}

TEST(P2QuantileTest, TracksQuantilesOfALongStream) {
  // 1..10000 in scrambled order (stride 77 is coprime to 10000). P² keeps
  // five markers, so compare against the exact quantile with a small
  // relative tolerance.
  P2Quantile p50(0.5);
  P2Quantile p95(0.95);
  P2Quantile p99(0.99);
  for (int i = 0; i < 10000; ++i) {
    const double x = static_cast<double>(i * 77 % 10000 + 1);
    p50.Add(x);
    p95.Add(x);
    p99.Add(x);
  }
  EXPECT_NEAR(p50.Estimate(), 5000.0, 100.0);
  EXPECT_NEAR(p95.Estimate(), 9500.0, 100.0);
  EXPECT_NEAR(p99.Estimate(), 9900.0, 60.0);
  EXPECT_EQ(p50.count(), 10000u);
}

TEST(P2QuantileTest, ExtremesClampIntoEndMarkers) {
  P2Quantile q(0.5);
  for (double x : {5.0, 6.0, 7.0, 8.0, 9.0}) q.Add(x);
  q.Add(-100.0);  // Below the lowest marker.
  q.Add(1000.0);  // Above the highest.
  const double e = q.Estimate();
  EXPECT_GE(e, -100.0);
  EXPECT_LE(e, 1000.0);
  EXPECT_EQ(q.count(), 7u);
}

}  // namespace
}  // namespace flowsched
