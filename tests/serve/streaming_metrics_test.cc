#include "serve/streaming_metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "serve/wire_protocol.h"
#include "util/stats.h"

// Every allocation this binary makes through operator new is counted, so a
// test can assert that a code path allocates nothing.
namespace {
std::atomic<long long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace flowsched {
namespace {

TEST(StreamingDistributionTest, TracksTotalsAndWindowIndependently) {
  StreamingDistribution d;
  d.Add(2.0);
  d.Add(4.0);
  EXPECT_EQ(d.total().count(), 2u);
  EXPECT_EQ(d.window().count(), 2u);
  d.ResetWindow();
  d.Add(10.0);
  EXPECT_EQ(d.total().count(), 3u);
  EXPECT_DOUBLE_EQ(d.total().sum(), 16.0);
  EXPECT_EQ(d.window().count(), 1u);
  EXPECT_DOUBLE_EQ(d.window().mean(), 10.0);
}

TEST(StreamingDistributionTest, QuantileEstimatesConvergeOnUniformRamp) {
  StreamingDistribution d;
  // 1..1000 in a deterministic scrambled order (stride coprime to 1000).
  for (int i = 0; i < 1000; ++i) d.Add(static_cast<double>(i * 7 % 1000 + 1));
  EXPECT_NEAR(d.p50(), 500.0, 25.0);
  EXPECT_NEAR(d.p95(), 950.0, 25.0);
  EXPECT_NEAR(d.p99(), 990.0, 15.0);
}

TEST(StreamingMetricsTest, StatsLineCarriesRoundBacklogAndCounts) {
  StreamingMetrics m;
  m.RecordResponse(3.0);
  m.RecordResponse(5.0);
  m.RecordCct(5.0);
  const std::string line = m.StatsLine(41, 7);
  EXPECT_EQ(line.rfind("{\"round\":41,\"backlog\":7,", 0), 0u) << line;
  EXPECT_NE(line.find("\"resp_count\":2"), std::string::npos) << line;
  EXPECT_NE(line.find("\"resp_mean\":4"), std::string::npos) << line;
  EXPECT_NE(line.find("\"resp_max\":5"), std::string::npos) << line;
  EXPECT_NE(line.find("\"cct_count\":1"), std::string::npos) << line;
  EXPECT_EQ(line.back(), '}');
}

TEST(StreamingMetricsTest, StatsLineResetsTheTumblingWindow) {
  StreamingMetrics m;
  m.RecordResponse(8.0);
  (void)m.StatsLine(0, 0);
  m.RecordResponse(2.0);
  const std::string line = m.StatsLine(1, 0);
  // Cumulative side remembers both; the window only sees the new sample.
  EXPECT_NE(line.find("\"resp_count\":2"), std::string::npos) << line;
  EXPECT_NE(line.find("\"resp_win_count\":1"), std::string::npos) << line;
  EXPECT_NE(line.find("\"resp_win_mean\":2"), std::string::npos) << line;
}

void ExpectSameStats(const RunningStats& got, const RunningStats& want,
                     const char* what) {
  EXPECT_EQ(got.count(), want.count()) << what;
  EXPECT_EQ(got.sum(), want.sum()) << what;
  EXPECT_EQ(got.mean(), want.mean()) << what;
  EXPECT_EQ(got.stddev(), want.stddev()) << what;
  EXPECT_EQ(got.min(), want.min()) << what;
  EXPECT_EQ(got.max(), want.max()) << what;
}

void ExpectSameChannel(const StreamingDistribution& got,
                       const StreamingDistribution& want, const char* what) {
  ExpectSameStats(got.total(), want.total(), what);
  ExpectSameStats(got.window(), want.window(), what);
  EXPECT_EQ(got.p50(), want.p50()) << what;
  EXPECT_EQ(got.p95(), want.p95()) << what;
  EXPECT_EQ(got.p99(), want.p99()) << what;
}

// RecordSingleton shares one channel for response and CCT until the first
// tagged record. Against two plain channels that every singleton feeds
// separately (and a StreamingMetrics fed that way), every accessor and
// every stats line must be bit-identical — also when the first tagged
// record comes after many singletons and several window resets.
TEST(StreamingMetricsTest, SingletonsMatchTwoSeparateChannels) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    StreamingMetrics metrics;
    StreamingMetrics separate;
    StreamingDistribution response;
    StreamingDistribution cct;
    // The first `singletons` operations record only singletons (and stats
    // lines); after that the three record kinds interleave.
    const int singletons = static_cast<int>(rng() % 4000);
    const int ops = singletons + static_cast<int>(rng() % 2000);
    for (int op = 0; op < ops; ++op) {
      const double x = static_cast<double>(1 + rng() % 60) +
                       (rng() % 8 == 0 ? 0.25 : 0.0);
      const unsigned kind =
          op < singletons ? (rng() % 50 == 0 ? 3u : 0u)
                          : static_cast<unsigned>(rng() % 4);
      switch (kind) {
        case 0:
          metrics.RecordSingleton(x);
          separate.RecordResponse(x);
          separate.RecordCct(x);
          response.Add(x);
          cct.Add(x);
          break;
        case 1:
          metrics.RecordResponse(x);
          separate.RecordResponse(x);
          response.Add(x);
          break;
        case 2:
          metrics.RecordCct(x);
          separate.RecordCct(x);
          cct.Add(x);
          break;
        default: {
          const Round t = op;
          const std::size_t backlog = rng() % 100;
          ASSERT_EQ(metrics.StatsLine(t, backlog),
                    separate.StatsLine(t, backlog))
              << "seed " << seed << " op " << op;
          response.ResetWindow();
          cct.ResetWindow();
          break;
        }
      }
      if (op % 97 == 0 || op == ops - 1) {
        ExpectSameChannel(metrics.response(), response, "response");
        ExpectSameChannel(metrics.cct(), cct, "cct");
        ExpectSameChannel(separate.cct(), cct, "separate cct");
        if (testing::Test::HasFailure()) {
          FAIL() << "seed " << seed << " op " << op;
        }
      }
    }
    EXPECT_EQ(metrics.StatsLine(ops, 0), separate.StatsLine(ops, 0));
  }
}

TEST(StreamingMetricsTest, FirstTaggedRecordAfterManySingletons) {
  StreamingMetrics metrics;
  StreamingDistribution response;
  StreamingDistribution cct;
  for (int i = 0; i < 10000; ++i) {
    const double x = static_cast<double>(1 + i * 7 % 50);
    metrics.RecordSingleton(x);
    response.Add(x);
    cct.Add(x);
    if (i % 1000 == 999) {
      (void)metrics.StatsLine(i, 0);
      response.ResetWindow();
      cct.ResetWindow();
    }
  }
  metrics.RecordCct(90.0);
  cct.Add(90.0);
  ExpectSameChannel(metrics.response(), response, "response");
  ExpectSameChannel(metrics.cct(), cct, "cct");
  metrics.RecordSingleton(3.0);
  response.Add(3.0);
  cct.Add(3.0);
  ExpectSameChannel(metrics.response(), response, "response");
  ExpectSameChannel(metrics.cct(), cct, "cct");
}

TEST(StreamingMetricsTest, RecordingAllocatesNothing) {
  StreamingMetrics metrics;
  const long long before = g_allocations.load();
  for (int i = 0; i < 10000; ++i) {
    metrics.RecordSingleton(static_cast<double>(i % 40 + 1));
    if (i == 5000) metrics.RecordCct(12.0);
    if (i > 5000) metrics.RecordResponse(static_cast<double>(i % 9 + 1));
  }
  EXPECT_EQ(g_allocations.load() - before, 0);
}

// The wire parser allocates nothing for a line that parses.
TEST(WireParseAllocationTest, ValidArriveAndTickLinesAllocateNothing) {
  std::vector<std::string> lines;
  for (int i = 0; i < 10000; ++i) {
    switch (i % 5) {
      case 0:
        lines.push_back("TICK");
        break;
      case 1:
        lines.push_back("ARRIVE " + std::to_string(i) + " 3 250 1");
        break;
      case 2:
        lines.push_back("ARRIVE\t" + std::to_string(i * 997) +
                        " 0 17 4 2147483647\r");
        break;
      case 3:
        lines.push_back("  # comment with 1 2 3 4 5 6 7 8 tokens");
        break;
      default:
        lines.push_back("ARRIVE 2147483647 255 0 123456789 " +
                        std::to_string(i));
        break;
    }
  }
  WireCommand command;
  std::string error;
  long long parsed = 0;
  const long long before = g_allocations.load();
  for (const std::string& line : lines) {
    parsed += ParseWireLine(line, &command, &error) ? 1 : 0;
  }
  const long long allocations = g_allocations.load() - before;
  EXPECT_EQ(parsed, 10000) << error;
  EXPECT_EQ(allocations, 0);
}

TEST(P2QuantileTest, ExactBelowFiveObservations) {
  P2Quantile q(0.5);
  EXPECT_DOUBLE_EQ(q.Estimate(), 0.0);  // Empty.
  q.Add(30.0);
  EXPECT_DOUBLE_EQ(q.Estimate(), 30.0);
  q.Add(10.0);
  q.Add(20.0);
  EXPECT_DOUBLE_EQ(q.Estimate(), 20.0);  // Nearest-rank median of 3.
}

}  // namespace
}  // namespace flowsched
