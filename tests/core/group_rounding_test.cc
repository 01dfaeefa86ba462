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

// An input that over-commits the sink, outside GroupRound's precondition
// of an LP-feasible fractional solution: seven unit flows into one output
// of capacity 1, windows {0, 1}, three flows integral in each round and
// flow 3 split evenly. Only two integral flows per round fit the theorem
// budget (capacity 1 + bound 1), so flows 2 and 6 stay unfixed with flow
// 3, and their residual LP, with no slack left on either sink row, is
// infeasible.
TimeConstrainedSolution OverCommittedSink(const Instance& instance) {
  TimeConstrainedSolution sol;
  sol.feasible = true;
  for (FlowId e = 0; e < instance.num_flows(); ++e) {
    const double x0 = e < 3 ? 1.0 : e == 3 ? 0.5 : 0.0;
    for (Round t : {0, 1}) {
      sol.var_flow.push_back(e);
      sol.var_round.push_back(t);
      sol.x.push_back(t == 0 ? x0 : 1.0 - x0);
    }
  }
  return sol;
}

Instance SevenIntoOne() {
  Instance instance(SwitchSpec::Uniform(7, 7), {});
  for (PortId p = 0; p < 7; ++p) instance.AddFlow(p, 0, 1, 0);
  return instance;
}

TEST(GroupRoundingTest, InfeasibleResidualLpLiftsRowsAsHardDrops) {
  const Instance instance = SevenIntoOne();
  const ActiveWindows windows = WindowsForMaxResponse(instance, 2);
  GroupRoundingReport report;
  const Schedule schedule = GroupRound(
      instance, windows, OverCommittedSink(instance), {}, &report);
  ASSERT_TRUE(schedule.AllAssigned());
  // Both sink rows are lifted, one per infeasible solve; the three flows
  // left take three more solves.
  EXPECT_EQ(report.hard_drops, 2);
  EXPECT_EQ(report.lp_solves, 5);
  // Four flows share one sink round: 3 over capacity, measured, beyond
  // the theorem's bound of 1.
  EXPECT_EQ(report.max_violation, 3);
  EXPECT_GT(report.max_violation, report.bound);
  EXPECT_FALSE(schedule
                   .ValidationError(instance, CapacityAllowance::Additive(
                                                  report.max_violation))
                   .has_value());
  EXPECT_TRUE(schedule
                  .ValidationError(instance, CapacityAllowance::Additive(
                                                 report.max_violation - 1))
                  .has_value());
}

TEST(GroupRoundingTest, ForcedFlowWithNoRoundInBudgetTakesTheLeastOvershoot) {
  // The same input with no LP solves: flows 2, 3 and 6 have no round
  // within budget, so each is forced to its least-overshooting round
  // (flow 3's is a tie, kept at the first, round 0).
  const Instance instance = SevenIntoOne();
  const ActiveWindows windows = WindowsForMaxResponse(instance, 2);
  GroupRoundingOptions options;
  options.max_lp_solves = 0;
  GroupRoundingReport report;
  const Schedule schedule = GroupRound(
      instance, windows, OverCommittedSink(instance), options, &report);
  ASSERT_TRUE(schedule.AllAssigned());
  EXPECT_EQ(report.forced_fixes, 3);
  EXPECT_EQ(report.hard_drops, 0);
  EXPECT_EQ(schedule.round_of(3), 0);
  EXPECT_EQ(report.max_violation, 3);
}

}  // namespace
}  // namespace flowsched
