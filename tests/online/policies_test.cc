#include <gtest/gtest.h>

#include <tuple>

#include "core/online/max_card_policy.h"
#include "core/online/policy.h"
#include "core/online/simulator.h"
#include "graph/expansion.h"
#include "workload/patterns.h"
#include "workload/poisson.h"

namespace flowsched {
namespace {

TEST(PolicyFactoryTest, AllNamesConstruct) {
  for (const std::string& name : AllPolicyNames()) {
    auto policy = MakePolicy(name);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), name);
  }
}

TEST(PolicyFactoryDeathTest, UnknownNameAborts) {
  EXPECT_DEATH(MakePolicy("nope"), "unknown policy");
}

TEST(BacklogGraphTest, UnitCapacityGraphMirrorsPending) {
  const SwitchSpec sw = SwitchSpec::Uniform(3, 3, 1);
  std::vector<PendingFlow> pending = {{0, 0, 1, 1, 0}, {1, 2, 1, 1, 0}};
  BacklogGraphBuilder builder;
  const BipartiteGraph& g = builder.Build(sw, pending);
  EXPECT_EQ(g.num_left(), 3);
  EXPECT_EQ(g.num_right(), 3);
  ASSERT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.edge(0).u, 0);
  EXPECT_EQ(g.edge(1).u, 2);
  EXPECT_EQ(g.edge(0).v, g.edge(1).v);  // Same output port, capacity 1.
}

TEST(BacklogGraphTest, CapacityCreatesReplicas) {
  const SwitchSpec sw({2}, {3});
  std::vector<PendingFlow> pending(4, PendingFlow{0, 0, 0, 1, 0});
  BacklogGraphBuilder builder;
  const BipartiteGraph& g = builder.Build(sw, pending);
  EXPECT_EQ(g.num_left(), 2);
  EXPECT_EQ(g.num_right(), 3);
  // Round-robin: left degrees {2,2}, right degrees {2,1,1}.
  EXPECT_EQ(g.LeftDegree(0), 2);
  EXPECT_EQ(g.LeftDegree(1), 2);
  EXPECT_EQ(g.RightDegree(0), 2);
}

TEST(MaxCardPolicyTest, SelectsMaximumMatchingEachRound) {
  const SwitchSpec sw = SwitchSpec::Uniform(3, 3, 1);
  MaxCardPolicy policy;
  std::vector<PendingFlow> pending = {
      {0, 0, 0, 1, 0}, {1, 0, 1, 1, 0}, {2, 1, 1, 1, 0}, {3, 2, 2, 1, 0}};
  const auto picked = policy.SelectFlows(sw, 0, pending);
  // Max matching has size 3: (0,0),(1,1) or (0,1)... plus (2,2).
  EXPECT_EQ(picked.size(), 3u);
}

// Every policy must produce a valid schedule and drain every workload.
class PolicySimulationTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(PolicySimulationTest, DrainsPoissonWorkloads) {
  const auto& [name, seed] = GetParam();
  PoissonConfig cfg;
  cfg.num_inputs = cfg.num_outputs = 6;
  cfg.mean_arrivals_per_round = 8.0;  // Overloaded during arrivals.
  cfg.num_rounds = 8;
  cfg.seed = seed;
  const Instance instance = GeneratePoisson(cfg);
  auto policy = MakePolicy(name, seed);
  const SimulationResult r = Simulate(instance, *policy);
  // The simulator validates the schedule internally; spot-check metrics.
  EXPECT_EQ(r.realized.num_flows(), instance.num_flows());
  EXPECT_GE(r.metrics.max_response, 1.0);
  EXPECT_GE(r.metrics.avg_response, 1.0);
  EXPECT_GE(r.rounds, cfg.num_rounds - 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySimulationTest,
    ::testing::Combine(::testing::Values("maxcard", "minrtime", "maxweight",
                                         "fifo", "random", "srpt", "hybrid"),
                       ::testing::Values(1u, 2u)));

TEST(PolicyComparisonTest, MinRTimeBeatsMaxCardOnMaxResponseForStarvation) {
  // Starvation trap: a steady stream of fresh conflicting pairs. MaxCard is
  // free to starve an old flow; MinRTime must eventually run it.
  Instance instance(SwitchSpec::Uniform(3, 3), {});
  // Round 0: (0,0) and the decoys begin; decoys (1,0) & (0,1) arrive every
  // round — a max-cardinality matching can always pick the two decoys.
  instance.AddFlow(0, 0, 1, 0);
  for (Round t = 0; t < 12; ++t) {
    instance.AddFlow(1, 0, 1, t);
    instance.AddFlow(0, 1, 1, t);
  }
  auto minrtime = MakePolicy("minrtime");
  const SimulationResult r = Simulate(instance, *minrtime);
  // MinRTime schedules the aging flow well before the stream ends.
  EXPECT_LE(r.metrics.max_response, 6.0);
}

TEST(PolicyComparisonTest, AllPoliciesOptimalOnDisjointFlows) {
  Instance instance(SwitchSpec::Uniform(5, 5), {});
  for (int i = 0; i < 5; ++i) instance.AddFlow(i, i, 1, 2);
  for (const std::string& name : AllPolicyNames()) {
    auto policy = MakePolicy(name);
    const SimulationResult r = Simulate(instance, *policy);
    EXPECT_DOUBLE_EQ(r.metrics.avg_response, 1.0) << name;
    EXPECT_DOUBLE_EQ(r.metrics.max_response, 1.0) << name;
  }
}

TEST(PolicyGeneralCapacityTest, MatchingPoliciesHandleCapacities) {
  PoissonConfig cfg;
  cfg.num_inputs = cfg.num_outputs = 3;
  cfg.port_capacity = 3;
  cfg.mean_arrivals_per_round = 9.0;
  cfg.num_rounds = 4;
  cfg.seed = 9;
  const Instance instance = GeneratePoisson(cfg);
  for (const std::string& name : {"maxcard", "minrtime", "maxweight"}) {
    auto policy = MakePolicy(name);
    const SimulationResult r = Simulate(instance, *policy);
    EXPECT_EQ(r.realized.num_flows(), instance.num_flows()) << name;
  }
}

TEST(PolicyGeneralDemandTest, GreedyPoliciesHandleDemands) {
  PoissonConfig cfg;
  cfg.num_inputs = cfg.num_outputs = 3;
  cfg.port_capacity = 4;
  cfg.max_demand = 4;
  cfg.mean_arrivals_per_round = 5.0;
  cfg.num_rounds = 4;
  cfg.seed = 10;
  const Instance instance = GeneratePoisson(cfg);
  for (const std::string& name : {"fifo", "random", "srpt"}) {
    auto policy = MakePolicy(name, 3);
    const SimulationResult r = Simulate(instance, *policy);
    EXPECT_EQ(r.realized.num_flows(), instance.num_flows()) << name;
  }
}

}  // namespace
}  // namespace flowsched
