#include "model/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "util/stats.h"

namespace flowsched {
namespace {

TEST(MetricsTest, ComputesResponseStatistics) {
  Instance instance(SwitchSpec::Uniform(2, 2), {});
  instance.AddFlow(0, 0, 1, 0);
  instance.AddFlow(1, 1, 1, 0);
  instance.AddFlow(0, 1, 1, 2);
  Schedule s(3);
  s.Assign(0, 0);  // rho = 1.
  s.Assign(1, 2);  // rho = 3.
  s.Assign(2, 3);  // rho = 2.
  const ScheduleMetrics m = ComputeMetrics(instance, s);
  EXPECT_EQ(m.response.size(), 3u);
  EXPECT_DOUBLE_EQ(m.total_response, 6.0);
  EXPECT_DOUBLE_EQ(m.avg_response, 2.0);
  EXPECT_DOUBLE_EQ(m.max_response, 3.0);
  EXPECT_EQ(m.makespan, 4);
  EXPECT_DOUBLE_EQ(m.p99_response, 3.0);
}

// Twenty flows through a 1x1 switch, one per round: responses are exactly
// 1, 2, ..., 20, so every distribution statistic is hand-computable.
TEST(MetricsTest, PercentilesAndStddevOnKnownDistribution) {
  Instance instance(SwitchSpec::Uniform(1, 1), {});
  for (int i = 0; i < 20; ++i) instance.AddFlow(0, 0, 1, 0);
  Schedule s(20);
  for (int i = 0; i < 20; ++i) s.Assign(i, i);  // rho_i = i + 1.
  const ScheduleMetrics m = ComputeMetrics(instance, s);
  EXPECT_DOUBLE_EQ(m.total_response, 210.0);  // 20 * 21 / 2.
  EXPECT_DOUBLE_EQ(m.avg_response, 10.5);
  EXPECT_DOUBLE_EQ(m.max_response, 20.0);
  // Nearest-rank: p-th percentile is element ceil(p/100 * 20) of 1..20.
  EXPECT_DOUBLE_EQ(m.p50_response, 10.0);
  EXPECT_DOUBLE_EQ(m.p95_response, 19.0);
  EXPECT_DOUBLE_EQ(m.p99_response, 20.0);
  // Sample variance of 1..n is n(n+1)/12 = 35 for n = 20.
  EXPECT_NEAR(m.stddev_response, std::sqrt(35.0), 1e-12);
  EXPECT_EQ(m.makespan, 20);
}

// One flow: percentiles collapse onto the single response and the sample
// stddev (n-1 denominator) is defined as zero.
TEST(MetricsTest, PercentileFieldsWithOneSample) {
  Instance instance(SwitchSpec::Uniform(1, 1), {});
  instance.AddFlow(0, 0, 1, 2);
  Schedule s(1);
  s.Assign(0, 6);  // rho = 5.
  const ScheduleMetrics m = ComputeMetrics(instance, s);
  EXPECT_DOUBLE_EQ(m.p50_response, 5.0);
  EXPECT_DOUBLE_EQ(m.p95_response, 5.0);
  EXPECT_DOUBLE_EQ(m.p99_response, 5.0);
  EXPECT_DOUBLE_EQ(m.stddev_response, 0.0);
}

TEST(MetricsTest, SingleFlow) {
  Instance instance(SwitchSpec::Uniform(1, 1), {});
  instance.AddFlow(0, 0, 1, 5);
  Schedule s(1);
  s.Assign(0, 5);
  const ScheduleMetrics m = ComputeMetrics(instance, s);
  EXPECT_DOUBLE_EQ(m.avg_response, 1.0);
  EXPECT_DOUBLE_EQ(m.max_response, 1.0);
  EXPECT_EQ(m.makespan, 6);
}

// The percentiles come from one count per response value; they must equal
// util/stats.h's sort-based nearest-rank ones on every schedule.
void ExpectPercentilesMatchSort(const Instance& instance, const Schedule& s) {
  const ScheduleMetrics m = ComputeMetrics(instance, s);
  const std::vector<double> p = Percentiles(m.response, {50.0, 95.0, 99.0});
  EXPECT_EQ(m.p50_response, p[0]);
  EXPECT_EQ(m.p95_response, p[1]);
  EXPECT_EQ(m.p99_response, p[2]);
}

TEST(MetricsTest, CountedPercentilesMatchSortedOnRandomSchedules) {
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(trial);
    const int n = std::uniform_int_distribution<int>(1, 300)(rng);
    const int horizon = std::uniform_int_distribution<int>(1, 3 * n)(rng);
    std::uniform_int_distribution<Round> any_round(0, horizon);
    Instance instance(SwitchSpec::Uniform(4, 4), {});
    Schedule s(n);
    for (int i = 0; i < n; ++i) {
      const Round release = any_round(rng);
      instance.AddFlow(i % 4, (i / 4) % 4, 1, release);
      // Every fourth trial ignores releases: some responses are <= 0, and
      // the span often exceeds 4n, which takes the sorting fallback.
      s.Assign(i, trial % 4 == 0 ? any_round(rng)
                                 : release + any_round(rng) / 4);
    }
    ExpectPercentilesMatchSort(instance, s);
  }
}

TEST(MetricsTest, CountedPercentilesEdgeCases) {
  // n = 1; all responses equal; n = 20 and n = 100, where p * n / 100 is a
  // whole number (the rank boundary) for p = 50, 95 (and 99 at n = 100).
  for (int n : {1, 20, 100}) {
    for (bool equal : {true, false}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " equal=" << equal);
      Instance instance(SwitchSpec::Uniform(1, 1), {});
      Schedule s(n);
      for (int i = 0; i < n; ++i) {
        instance.AddFlow(0, 0, 1, 0);
        s.Assign(i, equal ? 7 : (i * 37) % n);
      }
      ExpectPercentilesMatchSort(instance, s);
    }
  }
  // A flow assigned before its release: the responses start below 1.
  Instance early(SwitchSpec::Uniform(1, 1), {});
  early.AddFlow(0, 0, 1, 9);
  early.AddFlow(0, 0, 1, 0);
  early.AddFlow(0, 0, 1, 0);
  Schedule s(3);
  s.Assign(0, 2);  // rho = -6.
  s.Assign(1, 0);  // rho = 1.
  s.Assign(2, 4);  // rho = 5.
  const ScheduleMetrics m = ComputeMetrics(early, s);
  EXPECT_EQ(m.p50_response, 1.0);
  EXPECT_EQ(m.p95_response, 5.0);
  ExpectPercentilesMatchSort(early, s);
  // A span far wider than the sample.
  Schedule far(3);
  far.Assign(0, 1 << 30);
  far.Assign(1, 0);
  far.Assign(2, 1);
  ExpectPercentilesMatchSort(early, far);
}

TEST(MetricsDeathTest, RequiresFullAssignment) {
  Instance instance(SwitchSpec::Uniform(1, 1), {});
  instance.AddFlow(0, 0);
  const Schedule s(1);
  EXPECT_DEATH(ComputeMetrics(instance, s), "CHECK failed");
}

}  // namespace
}  // namespace flowsched
