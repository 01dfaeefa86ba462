// Tests for the extension policies (SRPT, Hybrid) and augmented-switch
// online simulation.
#include <gtest/gtest.h>

#include "core/online/simulator.h"
#include "core/online/srpt_policy.h"
#include "workload/patterns.h"
#include "workload/poisson.h"

namespace flowsched {
namespace {

TEST(SrptPolicyTest, PrefersSmallDemands) {
  const SwitchSpec sw = SwitchSpec::Uniform(2, 2, 4);
  SrptPolicy policy;
  // Two flows on the same port pair: demand 3 and demand 2; capacity 4 only
  // fits one plus... demand 2 first, then 3 does not fit (2+3 > 4).
  std::vector<PendingFlow> pending = {{0, 0, 0, 3, 0}, {1, 0, 0, 2, 0}};
  const auto picked = policy.SelectFlows(sw, 0, pending);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0], 1);  // The demand-2 flow.
}

TEST(SrptPolicyTest, FillsRemainingCapacity) {
  const SwitchSpec sw = SwitchSpec::Uniform(2, 2, 4);
  SrptPolicy policy;
  std::vector<PendingFlow> pending = {
      {0, 0, 0, 1, 0}, {1, 0, 0, 2, 0}, {2, 0, 0, 1, 0}, {3, 0, 0, 4, 0}};
  const auto picked = policy.SelectFlows(sw, 0, pending);
  // 1 + 1 + 2 = 4 fits; the demand-4 flow must wait.
  Capacity total = 0;
  for (int i : picked) total += pending[i].demand;
  EXPECT_EQ(total, 4);
  EXPECT_EQ(picked.size(), 3u);
}

TEST(SrptPolicyTest, TiesBrokenByReleaseFifo) {
  const SwitchSpec sw = SwitchSpec::Uniform(2, 1, 1);
  SrptPolicy policy;
  std::vector<PendingFlow> pending = {{7, 0, 0, 1, 5}, {3, 1, 0, 1, 2}};
  const auto picked = policy.SelectFlows(sw, 6, pending);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(pending[picked[0]].id, 3);  // Earlier release wins the tie.
}

TEST(HybridPolicyTest, InterpolatesAgeAndPressure) {
  const SwitchSpec sw = SwitchSpec::Uniform(3, 3, 1);
  HybridPolicy policy;  // alpha = 1/2.
  // Old flow (0,0) vs fresh flows piled on port (1,1): hybrid must still
  // schedule the old flow since it conflicts with nothing.
  std::vector<PendingFlow> pending = {
      {0, 0, 0, 1, 0},  // age 11 at t=10.
      {1, 1, 1, 1, 10},
      {2, 1, 1, 1, 10},
      {3, 1, 1, 1, 10}};
  const auto picked = policy.SelectFlows(sw, 10, pending);
  // (0,0) and exactly one of the (1,1) flows.
  EXPECT_EQ(picked.size(), 2u);
}

TEST(ExtensionPoliciesTest, DrainAndValidate) {
  PoissonConfig cfg;
  cfg.num_inputs = cfg.num_outputs = 6;
  cfg.mean_arrivals_per_round = 8.0;
  cfg.num_rounds = 6;
  cfg.seed = 19;
  const Instance instance = GeneratePoisson(cfg);
  for (const std::string& name : {"srpt", "hybrid"}) {
    auto policy = MakePolicy(name);
    const SimulationResult r = Simulate(instance, *policy);
    EXPECT_EQ(r.realized.num_flows(), instance.num_flows()) << name;
    EXPECT_GE(r.metrics.avg_response, 1.0) << name;
  }
}

TEST(ExtensionPoliciesTest, SrptHandlesMixedDemands) {
  PoissonConfig cfg;
  cfg.num_inputs = cfg.num_outputs = 4;
  cfg.port_capacity = 6;
  cfg.max_demand = 6;
  cfg.mean_arrivals_per_round = 6.0;
  cfg.num_rounds = 5;
  cfg.seed = 23;
  const Instance instance = GeneratePoisson(cfg);
  auto policy = MakePolicy("srpt");
  const SimulationResult r = Simulate(instance, *policy);
  EXPECT_EQ(r.realized.num_flows(), instance.num_flows());
}

TEST(AugmentSwitchTest, ScalesCapacities) {
  const SwitchSpec sw({1, 2}, {3});
  const SwitchSpec doubled = AugmentSwitch(sw, CapacityAllowance::Factor(2.0));
  EXPECT_EQ(doubled.input_capacity(0), 2);
  EXPECT_EQ(doubled.input_capacity(1), 4);
  EXPECT_EQ(doubled.output_capacity(0), 6);
  const SwitchSpec plus_one = AugmentSwitch(sw, CapacityAllowance::Additive(1));
  EXPECT_EQ(plus_one.input_capacity(0), 2);
  EXPECT_EQ(plus_one.output_capacity(0), 4);
}

TEST(AugmentSwitchTest, AugmentedSimulationReducesBacklog) {
  PoissonConfig cfg;
  cfg.num_inputs = cfg.num_outputs = 6;
  cfg.mean_arrivals_per_round = 12.0;  // Load 2: heavily backlogged.
  cfg.num_rounds = 8;
  cfg.seed = 29;
  const Instance base = GeneratePoisson(cfg);
  const Instance augmented(AugmentSwitch(base.sw(), CapacityAllowance::Factor(2.0)),
                           std::vector<Flow>(base.flows()));
  auto p1 = MakePolicy("maxweight");
  auto p2 = MakePolicy("maxweight");
  const SimulationResult r_base = Simulate(base, *p1);
  const SimulationResult r_aug = Simulate(augmented, *p2);
  // Doubling capacity at load 2 must cut the average response massively.
  EXPECT_LT(r_aug.metrics.avg_response, r_base.metrics.avg_response / 1.5);
}

TEST(SimulatorUtilizationTest, SaturatedAndIdleExtremes) {
  // Saturated: disjoint flows every round on a 2x2 switch -> utilization 1.
  Instance busy(SwitchSpec::Uniform(2, 2), {});
  for (Round t = 0; t < 5; ++t) {
    busy.AddFlow(0, 0, 1, t);
    busy.AddFlow(1, 1, 1, t);
  }
  auto policy = MakePolicy("maxcard");
  const SimulationResult r = Simulate(busy, *policy);
  EXPECT_NEAR(r.avg_port_utilization, 1.0, 1e-9);
  // One flow on a big switch: utilization ~ 1/m.
  Instance idle(SwitchSpec::Uniform(10, 10), {});
  idle.AddFlow(0, 0, 1, 0);
  auto policy2 = MakePolicy("maxcard");
  const SimulationResult r2 = Simulate(idle, *policy2);
  EXPECT_NEAR(r2.avg_port_utilization, 0.1, 1e-9);
}

}  // namespace
}  // namespace flowsched
