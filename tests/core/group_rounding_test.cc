#include "core/group_rounding.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "workload/patterns.h"
#include "workload/poisson.h"

namespace flowsched {
namespace {

// Helper: solve the LP then round; returns (schedule, report).
std::pair<Schedule, GroupRoundingReport> RoundInstance(
    const Instance& instance, const ActiveWindows& windows) {
  const TimeConstrainedSolution sol = SolveTimeConstrained(instance, windows);
  EXPECT_TRUE(sol.feasible);
  GroupRoundingReport report;
  Schedule s = GroupRound(instance, windows, sol, {}, &report);
  return {std::move(s), report};
}

TEST(GroupRoundingTest, IntegralInputPassesThrough) {
  Instance instance(SwitchSpec::Uniform(2, 2), {});
  instance.AddFlow(0, 0, 1, 0);
  instance.AddFlow(1, 1, 1, 0);
  const ActiveWindows windows = WindowsForMaxResponse(instance, 1);
  auto [schedule, report] = RoundInstance(instance, windows);
  EXPECT_TRUE(schedule.AllAssigned());
  EXPECT_EQ(schedule.round_of(0), 0);
  EXPECT_EQ(schedule.round_of(1), 0);
  EXPECT_EQ(report.max_violation, 0);
}

TEST(GroupRoundingTest, RespectsWindows) {
  Instance instance(SwitchSpec::Uniform(4, 4), {});
  AddIncast(instance, 0, 3, 0);
  const ActiveWindows windows = WindowsForMaxResponse(instance, 3);
  auto [schedule, report] = RoundInstance(instance, windows);
  for (const Flow& e : instance.flows()) {
    EXPECT_GE(schedule.round_of(e.id), e.release);
    EXPECT_LT(schedule.round_of(e.id), e.release + 3);
  }
  // Unit demands: violation at most 2*1 - 1 = 1 (Theorem 3 bound).
  EXPECT_LE(report.max_violation, report.bound);
}

// One rounding input: a general-demand Poisson instance (ports, dmax,
// seed), or one of the structured families "incast" (two overlapping
// incasts into an 8-port switch; `seed` picks the sinks) and "shuffle"
// (three waves of a 6-port shuffle).
struct RoundingInput {
  std::string family;
  int ports = 0;
  Capacity dmax = 1;
  std::uint64_t seed = 0;
};

void PrintTo(const RoundingInput& in, std::ostream* os) {
  *os << in.family << "(ports=" << in.ports << ", dmax=" << in.dmax
      << ", seed=" << in.seed << ")";
}

Instance MakeRoundingInput(const RoundingInput& in) {
  if (in.family == "incast") {
    Instance instance(SwitchSpec::Uniform(in.ports, in.ports), {});
    AddIncast(instance, static_cast<PortId>(in.seed % in.ports), 8, 0);
    AddIncast(instance, static_cast<PortId>((in.seed + 3) % in.ports), 6, 1);
    return instance;
  }
  if (in.family == "shuffle") return ShuffleWaves(in.ports, 5, 3, 2);
  PoissonConfig cfg;
  cfg.num_inputs = cfg.num_outputs = in.ports;
  cfg.port_capacity = std::max<Capacity>(2 * in.dmax, 2);
  cfg.max_demand = in.dmax;
  cfg.mean_arrivals_per_round = 2.0 * in.ports;
  cfg.num_rounds = 5;
  cfg.seed = in.seed;
  return GeneratePoisson(cfg);
}

class GroupRoundingPropertyTest
    : public ::testing::TestWithParam<RoundingInput> {};

TEST_P(GroupRoundingPropertyTest, ViolationWithinTheoremBound) {
  const Instance instance = MakeRoundingInput(GetParam());
  if (instance.num_flows() == 0) GTEST_SKIP();
  // A loose-but-finite rho (from FIFO drain length) keeps the LP feasible.
  Round rho = 4;
  TimeConstrainedSolution sol;
  for (;;) {
    sol = SolveTimeConstrained(instance, WindowsForMaxResponse(instance, rho));
    if (sol.feasible) break;
    rho *= 2;
    ASSERT_LE(rho, instance.SafeHorizon());
  }
  GroupRoundingReport report;
  const ActiveWindows windows = WindowsForMaxResponse(instance, rho);
  const Schedule schedule = GroupRound(instance, windows, sol, {}, &report);
  EXPECT_TRUE(schedule.AllAssigned());
  for (const Flow& e : instance.flows()) {
    EXPECT_GE(schedule.round_of(e.id), e.release);
    EXPECT_LT(schedule.round_of(e.id), e.release + rho);
  }
  // The paper's additive bound, 2*dmax - 1. Our rounder guarantees it
  // unless it recorded hard drops (none expected on these workloads).
  EXPECT_EQ(report.hard_drops, 0);
  EXPECT_LE(report.max_violation, 2 * instance.MaxDemand() - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, GroupRoundingPropertyTest,
    ::testing::Values(RoundingInput{"poisson", 3, 1, 51},
                      RoundingInput{"poisson", 4, 1, 52},
                      RoundingInput{"poisson", 4, 2, 53},
                      RoundingInput{"poisson", 5, 4, 54},
                      RoundingInput{"poisson", 6, 2, 55},
                      RoundingInput{"poisson", 3, 8, 56},
                      RoundingInput{"incast", 8, 1, 0},
                      RoundingInput{"incast", 8, 1, 1},
                      RoundingInput{"incast", 8, 1, 2},
                      RoundingInput{"incast", 8, 1, 3},
                      RoundingInput{"incast", 8, 1, 4},
                      RoundingInput{"shuffle", 6, 1, 0}));

TEST(GroupRoundingTest, TightWindowsForceViolationWithinBound) {
  // Three unit flows, one output port, all windowed to the same single
  // round: the LP is infeasible at capacity 1, but with rho = 3 windows the
  // fractional solution must split; rounding then violates by at most 1.
  Instance instance(SwitchSpec::Uniform(3, 3), {});
  AddIncast(instance, 0, 3, 0);
  const ActiveWindows windows = WindowsForMaxResponse(instance, 3);
  auto [schedule, report] = RoundInstance(instance, windows);
  EXPECT_LE(report.max_violation, 1);
}

}  // namespace
}  // namespace flowsched
