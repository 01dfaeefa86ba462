// Regression lock on the zero-allocation simulator rewrite: the realized
// metrics for every policy on the five generator specs must stay exactly
// what the pre-rewrite simulator produced (goldens captured from the
// original per-round-allocating implementation, PR 1). Any drift here means
// a policy, the backlog bookkeeping, or a matching kernel changed behavior
// — not just performance.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "api/instance_source.h"
#include "core/online/simulator.h"

namespace flowsched {
namespace {

struct Golden {
  const char* policy;
  double total_response;
  double max_response;
  int makespan;
};

struct SpecGoldens {
  const char* spec;
  std::vector<Golden> rows;
};

// Captured with the pre-rewrite binary:
//   flowsched_cli --instance=<spec> --solver=online.<policy> --seed=7
// except the seed=3 maxweight row, re-pinned when MaxWeight moved from the
// Hungarian to the vertex-weight matcher (another maximum-weight matching
// each round; was 2130 total, 27 max).
const std::vector<SpecGoldens> kGoldens = {
    {"poisson:ports=16,load=1.0,rounds=30,seed=3",
     {
         {"maxcard", 2155, 23, 45},
         {"minrtime", 2456, 23, 46},
         {"maxweight", 2173, 21, 46},
         {"fifo", 2994, 18, 46},
         {"random", 2767, 38, 46},
         {"srpt", 2994, 18, 46},
         {"hybrid", 2272, 22, 46},
     }},
    {"shuffle:ports=12,wave=4,waves=3,period=2",
     {
         {"maxcard", 216, 8, 12},
         {"minrtime", 216, 8, 12},
         {"maxweight", 216, 8, 12},
         {"fifo", 216, 8, 12},
         {"random", 219, 10, 13},
         {"srpt", 216, 8, 12},
         {"hybrid", 216, 8, 12},
     }},
    {"incast:ports=12,fanin=11,release=5",
     {
         {"maxcard", 66, 11, 16},
         {"minrtime", 66, 11, 16},
         {"maxweight", 66, 11, 16},
         {"fifo", 66, 11, 16},
         {"random", 66, 11, 16},
         {"srpt", 66, 11, 16},
         {"hybrid", 66, 11, 16},
     }},
    {"fig4a:phase=6,total=30",
     {
         {"maxcard", 135, 7, 33},
         {"minrtime", 137, 7, 33},
         {"maxweight", 135, 27, 33},
         {"fifo", 138, 7, 33},
         {"random", 138, 16, 33},
         {"srpt", 138, 7, 33},
         {"hybrid", 136, 7, 33},
     }},
    {"fig4b",
     {
         {"maxcard", 9, 2, 3},
         {"minrtime", 9, 2, 3},
         {"maxweight", 9, 2, 3},
         {"fifo", 9, 2, 3},
         {"random", 10, 3, 3},
         {"srpt", 9, 2, 3},
         {"hybrid", 9, 2, 3},
     }},
};

TEST(SimulatorRegressionTest, MetricsMatchPreRewriteGoldens) {
  for (const SpecGoldens& sg : kGoldens) {
    std::string error;
    const auto instance = LoadInstance(sg.spec, &error);
    ASSERT_TRUE(instance.has_value()) << sg.spec << ": " << error;
    for (const Golden& golden : sg.rows) {
      auto policy = MakePolicy(golden.policy, /*seed=*/7);
      const SimulationResult r = Simulate(*instance, *policy);
      EXPECT_DOUBLE_EQ(r.metrics.total_response, golden.total_response)
          << sg.spec << " / " << golden.policy;
      EXPECT_DOUBLE_EQ(r.metrics.max_response, golden.max_response)
          << sg.spec << " / " << golden.policy;
      EXPECT_EQ(r.metrics.makespan, golden.makespan)
          << sg.spec << " / " << golden.policy;
    }
  }
}

// validate=false must not change any result — it only skips the audits.
TEST(SimulatorRegressionTest, ValidationFlagDoesNotChangeResults) {
  std::string error;
  const auto instance =
      LoadInstance("poisson:ports=16,load=1.0,rounds=30,seed=3", &error);
  ASSERT_TRUE(instance.has_value()) << error;
  for (const std::string& name : AllPolicyNames()) {
    auto policy = MakePolicy(name, 7);
    const SimulationResult checked = Simulate(*instance, *policy);
    policy->Reset();
    SimulationOptions unchecked_options;
    unchecked_options.validate = false;
    const SimulationResult unchecked =
        Simulate(*instance, *policy, unchecked_options);
    EXPECT_DOUBLE_EQ(checked.metrics.total_response,
                     unchecked.metrics.total_response)
        << name;
    EXPECT_DOUBLE_EQ(checked.metrics.max_response,
                     unchecked.metrics.max_response)
        << name;
    EXPECT_EQ(checked.rounds, unchecked.rounds) << name;
  }
}

// The idle-gap fast-forward must behave exactly like polling every round:
// a trace with a long arrival gap drains, counts the same rounds, and keeps
// every release intact.
TEST(SimulatorRegressionTest, SparseReleaseGapsAreSkippedLosslessly) {
  Instance instance(SwitchSpec::Uniform(2, 2), {});
  instance.AddFlow(0, 0, 1, 0);
  instance.AddFlow(1, 1, 1, 0);
  instance.AddFlow(0, 1, 1, 5000);
  instance.AddFlow(1, 0, 1, 90000);
  auto policy = MakePolicy("fifo");
  const SimulationResult r = Simulate(instance, *policy);
  EXPECT_EQ(r.realized.num_flows(), 4);
  // Each flow runs the round it is released: 90001 rounds simulated.
  EXPECT_EQ(r.rounds, 90001);
  EXPECT_DOUBLE_EQ(r.metrics.total_response, 4.0);
  EXPECT_EQ(r.realized.flow(2).release, 5000);
  EXPECT_EQ(r.realized.flow(3).release, 90000);
}

// The fast-forward must never overshoot the round cap: a release beyond
// max_rounds leaves result.rounds at exactly max_rounds (the pre-rewrite
// behavior), not at the release round.
TEST(SimulatorRegressionTest, IdleGapSkipRespectsMaxRounds) {
  Instance instance(SwitchSpec::Uniform(1, 1), {});
  instance.AddFlow(0, 0, 1, 0);
  instance.AddFlow(0, 0, 1, 500);
  auto policy = MakePolicy("fifo");
  SimulationOptions options;
  options.max_rounds = 100;
  const SimulationResult r = Simulate(instance, *policy, options);
  EXPECT_EQ(r.rounds, 100);
  // Only the round-0 flow was ever released and scheduled.
  EXPECT_EQ(r.realized.num_flows(), 1);
}

TEST(SimulatorRegressionTest, PeakBacklogTracksLargestPendingSet) {
  Instance instance(SwitchSpec::Uniform(1, 1), {});
  for (int i = 0; i < 5; ++i) instance.AddFlow(0, 0, 1, 0);
  auto policy = MakePolicy("fifo");
  const SimulationResult r = Simulate(instance, *policy);
  EXPECT_EQ(r.peak_backlog, 5);
  EXPECT_EQ(r.rounds, 5);
}

}  // namespace
}  // namespace flowsched
