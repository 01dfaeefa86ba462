#include "serve/streaming_metrics.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "coflow/coflow_policies.h"
#include "core/online/policy.h"
#include "serve/streaming_simulator.h"
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
  d.Add(2);
  d.Add(4);
  EXPECT_EQ(d.total().count(), 2u);
  EXPECT_EQ(d.window().count(), 2u);
  d.ResetWindow();
  d.Add(10);
  EXPECT_EQ(d.total().count(), 3u);
  EXPECT_DOUBLE_EQ(d.total().sum(), 16.0);
  EXPECT_EQ(d.window().count(), 1u);
  EXPECT_DOUBLE_EQ(d.window().mean(), 10.0);
}

TEST(StreamingDistributionTest, PercentilesAreExactOnUniformRamp) {
  StreamingDistribution d;
  EXPECT_EQ(d.percentiles(), (std::array<double, 3>{0.0, 0.0, 0.0}));
  // 1..1000 in a deterministic scrambled order (stride coprime to 1000).
  for (int i = 0; i < 1000; ++i) d.Add(i * 7 % 1000 + 1);
  EXPECT_EQ(d.percentiles(), (std::array<double, 3>{500.0, 950.0, 990.0}));
}

// Tails many blocks long make the walk step over block sums; the
// percentiles stay the exact nearest-rank ones at every size.
TEST(StreamingDistributionTest, PercentilesMatchSortedOnLongTails) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    StreamingDistribution d;
    std::vector<double> values;
    const int n = 1 + static_cast<int>(rng() % 3000);
    for (int i = 0; i < n; ++i) {
      constexpr Round kCap = StreamingDistribution::kCountCap;
      const Round x = static_cast<Round>(rng() % (rng() % 4 == 0 ? kCap : 50));
      d.Add(x);
      values.push_back(static_cast<double>(x));
      if (i % 101 == 0 || i == n - 1) {
        const std::vector<double> want =
            Percentiles(values, {50.0, 95.0, 99.0});
        ASSERT_EQ(d.percentiles(),
                  (std::array<double, 3>{want[0], want[1], want[2]}))
            << "seed " << seed << " value " << i;
      }
    }
  }
}

// Values below kCountCap have a bin each, so their percentiles are exact;
// a percentile that falls among values at or past the cap reads the
// running max, which is exact when that value is the max and an upper
// bound otherwise.
TEST(StreamingDistributionTest, CountCapSharesOneOverflowBin) {
  constexpr Round kCap = StreamingDistribution::kCountCap;
  StreamingDistribution below;
  below.Add(3);
  below.Add(kCap - 1);
  EXPECT_EQ(below.percentiles(), (std::array<double, 3>{3.0, kCap - 1.0,
                                                        kCap - 1.0}));

  StreamingDistribution at;
  at.Add(1);
  at.Add(kCap);
  EXPECT_EQ(at.percentiles(), (std::array<double, 3>{1.0, kCap, kCap}));
  EXPECT_EQ(at.total().max(), kCap);

  // Nearest-rank p50 of {1, kCap + 5, kCap + 100} is kCap + 5; the
  // overflow bin reports the max.
  StreamingDistribution past;
  past.Add(kCap + 100);
  past.Add(1);
  past.Add(kCap + 5);
  EXPECT_EQ(past.percentiles(),
            (std::array<double, 3>{kCap + 100.0, kCap + 100.0, kCap + 100.0}));
  EXPECT_EQ(past.total().count(), 3u);
  EXPECT_EQ(past.total().sum(), 2.0 * kCap + 106.0);
}

// The CCT channel splits off the shared singleton channel with its own
// copy of the counts: an overflow on one channel never shows in the other.
TEST(StreamingMetricsTest, CountCapAfterSplit) {
  constexpr Round kCap = StreamingDistribution::kCountCap;
  StreamingMetrics m;
  for (int i = 1; i <= 20; ++i) m.RecordSingleton(i);
  m.RecordCct(kCap + 7);
  EXPECT_EQ(m.response().percentiles(),
            (std::array<double, 3>{10.0, 19.0, 20.0}));
  EXPECT_EQ(m.cct().percentiles(),
            (std::array<double, 3>{11.0, 20.0, kCap + 7.0}));
  m.RecordResponse(2 * kCap);
  m.RecordResponse(2 * kCap);
  EXPECT_EQ(m.response().percentiles(),
            (std::array<double, 3>{11.0, 2.0 * kCap, 2.0 * kCap}));
  EXPECT_EQ(m.cct().percentiles(),
            (std::array<double, 3>{11.0, 20.0, kCap + 7.0}));
  m.RecordSingleton(kCap - 1);
  EXPECT_EQ(m.response().percentiles(),
            (std::array<double, 3>{12.0, 2.0 * kCap, 2.0 * kCap}));
  EXPECT_EQ(m.cct().percentiles(),
            (std::array<double, 3>{11.0, kCap - 1.0, kCap + 7.0}));
}

TEST(StreamingMetricsTest, StatsLineCarriesRoundBacklogAndCounts) {
  StreamingMetrics m;
  m.RecordResponse(3);
  m.RecordResponse(5);
  m.RecordCct(5);
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
  m.RecordResponse(8);
  (void)m.StatsLine(0, 0);
  m.RecordResponse(2);
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
  EXPECT_EQ(got.percentiles(), want.percentiles()) << what;
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
      // Now and then a value far out, so the count arrays grow at
      // different times on the two sides.
      const Round x = static_cast<Round>(1 + rng() % 60) +
                      (rng() % 16 == 0 ? static_cast<Round>(rng() % 3000) : 0);
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
    const Round x = 1 + i * 7 % 50;
    metrics.RecordSingleton(x);
    response.Add(x);
    cct.Add(x);
    if (i % 1000 == 999) {
      (void)metrics.StatsLine(i, 0);
      response.ResetWindow();
      cct.ResetWindow();
    }
  }
  metrics.RecordCct(90);
  cct.Add(90);
  ExpectSameChannel(metrics.response(), response, "response");
  ExpectSameChannel(metrics.cct(), cct, "cct");
  metrics.RecordSingleton(3);
  response.Add(3);
  cct.Add(3);
  ExpectSameChannel(metrics.response(), response, "response");
  ExpectSameChannel(metrics.cct(), cct, "cct");
}

// The count arrays grow only when a new largest value needs more bins, the
// CCT channel copies them once when it splits, and the stats line buffer is
// reused: once a stream has done all three, recording and stats lines
// allocate nothing.
TEST(StreamingMetricsTest, RecordingAllocatesNothingOnceWarm) {
  StreamingMetrics metrics;
  auto record = [&] {
    for (int i = 0; i < 10000; ++i) {
      metrics.RecordSingleton(i % 40 + 1);
      if (i == 5000) metrics.RecordCct(StreamingDistribution::kCountCap + 1);
      if (i > 5000) metrics.RecordResponse(i % 9 + 1);
      if (i % 100 == 0) (void)metrics.StatsLine(i, 0);
    }
  };
  record();
  const long long before = g_allocations.load();
  record();
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

// Allocations over rounds [2000, 3000) of a wire-mode session on 16 ports
// with validation on. Round t injects 14 flows, each pattern shifted by t
// ports: flows k < 13 run from input k to output k, flow 13 from input 14
// to output 0, so two flows share output t. One of them waits a round;
// its ports are free of the next round's arrivals, so every policy serves
// it then and the backlog a policy sees is 15 flows from round 1 on.
// With `mixed`, capacities are 2 and every third flow has demand 2. No
// flow carries a coflow tag, so a coflow policy sees one new group per
// arrival.
long long SteadyStateRoundAllocations(std::unique_ptr<SchedulingPolicy> policy,
                                      bool mixed, int* peak_backlog) {
  constexpr int kPorts = 16;
  const SwitchSpec sw = SwitchSpec::Uniform(kPorts, kPorts, mixed ? 2 : 1);
  StreamingSimulator sim(sw, *policy);
  std::string error;
  FlowId next_id = 0;
  long long before = 0;
  for (Round t = 0; t < 3000; ++t) {
    if (t == 2000) before = g_allocations.load();
    for (int k = 0; k < 14; ++k) {
      Flow f;
      f.id = next_id++;
      f.src = static_cast<PortId>(((k < 13 ? k : 14) + t) % kPorts);
      f.dst = static_cast<PortId>((k % 13 + t) % kPorts);
      f.demand = mixed && f.id % 3 == 0 ? 2 : 1;
      EXPECT_TRUE(sim.Inject(f, &error)) << error;
    }
    sim.Step();
  }
  const long long allocations = g_allocations.load() - before;
  *peak_backlog = sim.Summarize().peak_backlog;
  return allocations;
}

// Once the backlog has reached its peak, a round of the streaming loop
// allocates nothing: not the engine's buffers, the policy's scratch, the
// selection audit, the metrics or the retirement of completed flows.
TEST(RoundLoopAllocationTest, SteadyStateRoundsAllocateNothing) {
  for (const std::string& name : AllPolicyNames()) {
    int peak = 0;
    EXPECT_EQ(SteadyStateRoundAllocations(MakePolicy(name, /*seed=*/1),
                                          /*mixed=*/false, &peak),
              0)
        << name;
    EXPECT_EQ(peak, 15) << name;
  }
  for (const char* name : {"srpt", "fifo", "random"}) {
    int peak = 0;
    EXPECT_EQ(SteadyStateRoundAllocations(MakePolicy(name, /*seed=*/1),
                                          /*mixed=*/true, &peak),
              0)
        << name << " on mixed demands";
    EXPECT_LE(peak, 15) << name << " on mixed demands";
  }
  // The coflow policies too: each untagged arrival takes a group slot that
  // its completion hands back.
  for (const std::string& name : AllCoflowPolicyNames()) {
    int peak = 0;
    EXPECT_EQ(SteadyStateRoundAllocations(MakeCoflowPolicy(name, /*seed=*/1),
                                          /*mixed=*/false, &peak),
              0)
        << "coflow." << name;
    EXPECT_EQ(peak, 15) << "coflow." << name;
  }
}

}  // namespace
}  // namespace flowsched
