#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
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

// Block sums only let the walk step over blocks: every bin it returns is
// the one the plain walk finds, also for counts that end inside a block
// and for long runs of empty bins and blocks.
TEST(StatsTest, PercentileBinsWithBlocksMatchThePlainWalk) {
  Rng rng(29);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint64_t> counts(
        rng.UniformInt(1, 8 * static_cast<int>(kPercentileBlock) + 3));
    std::uint64_t n = 0;
    const int values = rng.UniformInt(1, 400);
    for (int v = 0; v < values; ++v) {
      // Mostly small bins, a third anywhere: tails many blocks long.
      const int last = static_cast<int>(counts.size()) - 1;
      const int hi = v % 3 == 0 ? last : std::min(20, last);
      const auto bin = static_cast<std::size_t>(rng.UniformInt(0, hi));
      const auto k = static_cast<std::uint64_t>(rng.UniformInt(1, 3));
      counts[bin] += k;
      n += k;
    }
    std::vector<std::uint64_t> blocks(
        (counts.size() + kPercentileBlock - 1) / kPercentileBlock);
    for (std::size_t b = 0; b < counts.size(); ++b) {
      blocks[b / kPercentileBlock] += counts[b];
    }
    EXPECT_EQ(PercentileBins(counts, n, blocks), PercentileBins(counts, n))
        << "trial " << trial;
  }
}

TEST(StatsTest, MeanAndMax) {
  const std::vector<double> v = {2.0, 8.0, 5.0};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_DOUBLE_EQ(Max(v), 8.0);
}

}  // namespace
}  // namespace flowsched
