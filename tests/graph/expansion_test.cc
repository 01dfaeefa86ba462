#include "graph/expansion.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/edge_coloring.h"
#include "util/rng.h"

namespace flowsched {
namespace {

TEST(ExpansionTest, UnitCapacityIsIdentityShaped) {
  Instance instance(SwitchSpec::Uniform(2, 2, 1), {});
  instance.AddFlow(0, 1);
  instance.AddFlow(1, 0);
  BacklogGraphBuilder builder;
  const BipartiteGraph& g = builder.Build(instance.sw(), instance.flows());
  EXPECT_EQ(g.num_left(), 2);
  EXPECT_EQ(g.num_right(), 2);
  ASSERT_EQ(g.num_edges(), 2);
  // Edge i is flow i, between the ports' only replicas.
  EXPECT_EQ(g.edge(0).u, 0);
  EXPECT_EQ(g.edge(0).v, 1);
  EXPECT_EQ(g.edge(1).u, 1);
  EXPECT_EQ(g.edge(1).v, 0);
}

TEST(ExpansionTest, ReplicasReduceDegree) {
  // 6 flows into one output port of capacity 3: replicas get degree 2 each.
  Instance instance(SwitchSpec({1, 1, 1, 1, 1, 1}, {3}), {});
  for (int i = 0; i < 6; ++i) instance.AddFlow(i, 0);
  BacklogGraphBuilder builder;
  const BipartiteGraph& g = builder.Build(instance.sw(), instance.flows());
  EXPECT_EQ(g.num_right(), 3);
  for (int v = 0; v < 3; ++v) EXPECT_EQ(g.RightDegree(v), 2);
  EXPECT_EQ(g.MaxDegree(), 2);
  // Edge coloring of the replicated graph => 2 capacity-feasible rounds.
  const EdgeColoring ec = ColorBipartiteEdges(g);
  EXPECT_EQ(ec.num_colors, 2);
}

TEST(ExpansionTest, RoundRobinBalancesWithinOne) {
  Instance instance(SwitchSpec({4}, {2}), {});
  // 7 unit flows out of one input port with capacity 4.
  for (int i = 0; i < 7; ++i) instance.AddFlow(0, 0);
  BacklogGraphBuilder builder;
  const BipartiteGraph& g = builder.Build(instance.sw(), instance.flows());
  EXPECT_EQ(g.num_left(), 4);
  for (int u = 0; u < 4; ++u) {
    EXPECT_GE(g.LeftDegree(u), 1);
    EXPECT_LE(g.LeftDegree(u), 2);
  }
}

TEST(ExpansionDeathTest, RejectsNonUnitDemand) {
  Instance instance(SwitchSpec::Uniform(1, 1, 4), {});
  instance.AddFlow(0, 0, 2, 0);
  BacklogGraphBuilder builder;
  EXPECT_DEATH(builder.Build(instance.sw(), instance.flows()), "unit demands");
}

TEST(ExpansionTest, MatchingInReplicatedGraphIsCapacityFeasible) {
  Rng rng(21);
  Instance instance(SwitchSpec::Uniform(4, 4, 2), {});
  for (int i = 0; i < 24; ++i) {
    instance.AddFlow(rng.UniformInt(0, 3), rng.UniformInt(0, 3));
  }
  BacklogGraphBuilder builder;
  const BipartiteGraph& g = builder.Build(instance.sw(), instance.flows());
  const EdgeColoring ec = ColorBipartiteEdges(g);
  ASSERT_TRUE(IsValidEdgeColoring(g, ec));
  // Each color class, mapped back to ports, loads every port at most its
  // capacity (each replica used once per class).
  for (const auto& cls : ec.ColorClasses()) {
    std::vector<int> in_load(4, 0);
    std::vector<int> out_load(4, 0);
    for (int e : cls) {
      ++in_load[instance.flow(e).src];
      ++out_load[instance.flow(e).dst];
    }
    for (int p = 0; p < 4; ++p) {
      EXPECT_LE(in_load[p], 2);
      EXPECT_LE(out_load[p], 2);
    }
  }
}

}  // namespace
}  // namespace flowsched
