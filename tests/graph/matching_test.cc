#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/hopcroft_karp.h"
#include "graph/max_weight_matching.h"
#include "util/rng.h"

#include "brute_force_matching.h"

namespace flowsched {
namespace {

BipartiteGraph RandomGraph(int nl, int nr, int edges, Rng& rng) {
  BipartiteGraph g(nl, nr);
  for (int i = 0; i < edges; ++i) {
    g.AddEdge(rng.UniformInt(0, nl - 1), rng.UniformInt(0, nr - 1));
  }
  return g;
}

TEST(BipartiteGraphTest, BasicAccessors) {
  BipartiteGraph g(2, 3);
  const int e0 = g.AddEdge(0, 2);
  const int e1 = g.AddEdge(0, 0);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.edge(e0).v, 2);
  EXPECT_EQ(g.LeftDegree(0), 2);
  EXPECT_EQ(g.RightDegree(1), 0);
  EXPECT_EQ(g.MaxDegree(), 2);
  EXPECT_EQ(g.left_adj(0), (std::vector<int>{e0, e1}));
}

TEST(BipartiteGraphTest, IsMatchingRejectsSharedEndpointsAndDuplicates) {
  BipartiteGraph g(2, 2);
  const int a = g.AddEdge(0, 0);
  const int b = g.AddEdge(0, 1);
  const int c = g.AddEdge(1, 1);
  EXPECT_TRUE(IsMatching(g, std::vector<int>{a, c}));
  EXPECT_FALSE(IsMatching(g, std::vector<int>{a, b}));  // Share left 0.
  EXPECT_FALSE(IsMatching(g, std::vector<int>{b, c}));  // Share right 1.
  EXPECT_FALSE(IsMatching(g, std::vector<int>{a, a}));
}

TEST(HopcroftKarpTest, PerfectMatchingOnCycle) {
  BipartiteGraph g(3, 3);
  for (int i = 0; i < 3; ++i) {
    g.AddEdge(i, i);
    g.AddEdge(i, (i + 1) % 3);
  }
  const auto m = MaxCardinalityMatching(g);
  EXPECT_TRUE(IsMatching(g, m));
  EXPECT_EQ(m.size(), 3u);
}

TEST(HopcroftKarpTest, EmptyGraph) {
  BipartiteGraph g(4, 4);
  EXPECT_TRUE(MaxCardinalityMatching(g).empty());
}

TEST(HopcroftKarpTest, StarGraphMatchesOne) {
  BipartiteGraph g(1, 5);
  for (int v = 0; v < 5; ++v) g.AddEdge(0, v);
  EXPECT_EQ(MaxCardinalityMatching(g).size(), 1u);
}

TEST(HopcroftKarpTest, HandlesParallelEdges) {
  BipartiteGraph g(2, 2);
  g.AddEdge(0, 0);
  g.AddEdge(0, 0);
  g.AddEdge(1, 1);
  const auto m = MaxCardinalityMatching(g);
  EXPECT_TRUE(IsMatching(g, m));
  EXPECT_EQ(m.size(), 2u);
}

// Property sweep: Hopcroft-Karp cardinality equals brute force.
class MatchingPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatchingPropertyTest, MaxCardinalityMatchesBruteForce) {
  const auto [nl, nr, edges] = GetParam();
  Rng rng(1000 + nl * 100 + nr * 10 + edges);
  for (int trial = 0; trial < 30; ++trial) {
    Rng r = rng.Fork(trial);
    const BipartiteGraph g = RandomGraph(nl, nr, edges, r);
    const auto m = MaxCardinalityMatching(g);
    ASSERT_TRUE(IsMatching(g, m));
    EXPECT_EQ(static_cast<int>(m.size()), BruteForceMaxCardinality(g));
  }
}

TEST_P(MatchingPropertyTest, MaxWeightMatchesBruteForce) {
  const auto [nl, nr, edges] = GetParam();
  Rng rng(9000 + nl * 100 + nr * 10 + edges);
  for (int trial = 0; trial < 30; ++trial) {
    Rng r = rng.Fork(trial);
    const BipartiteGraph g = RandomGraph(nl, nr, edges, r);
    std::vector<double> w(g.num_edges());
    for (auto& x : w) x = static_cast<double>(r.UniformInt(0, 20));
    const auto m = MaxWeightMatching(g, w);
    ASSERT_TRUE(IsMatching(g, m));
    EXPECT_NEAR(MatchingWeight(m, w), BruteForceMaxWeight(g, w), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallGraphs, MatchingPropertyTest,
    ::testing::Values(std::make_tuple(3, 3, 5), std::make_tuple(4, 4, 8),
                      std::make_tuple(2, 6, 7), std::make_tuple(6, 2, 7),
                      std::make_tuple(5, 5, 12), std::make_tuple(4, 3, 10)));

TEST(MaxWeightMatchingTest, PrefersHeavyEdgeOverTwoLight) {
  // Heavy middle edge (10) vs two light side edges (1 + 1): picks heavy
  // when it outweighs the pair.
  BipartiteGraph g(2, 2);
  const int light1 = g.AddEdge(0, 0);
  const int heavy = g.AddEdge(0, 1);
  const int light2 = g.AddEdge(1, 1);
  {
    const std::vector<double> w = {1.0, 10.0, 1.0};
    const auto m = MaxWeightMatching(g, w);
    ASSERT_EQ(m.size(), 1u);
    EXPECT_EQ(m[0], heavy);
  }
  {
    const std::vector<double> w = {6.0, 10.0, 6.0};
    const auto m = MaxWeightMatching(g, w);
    EXPECT_EQ(MatchingWeight(m, w), 12.0);
    EXPECT_EQ(m.size(), 2u);
    EXPECT_TRUE((m[0] == light1 && m[1] == light2) ||
                (m[0] == light2 && m[1] == light1));
  }
}

TEST(MaxWeightMatchingTest, IgnoresZeroWeightEdgesGracefully) {
  BipartiteGraph g(2, 2);
  g.AddEdge(0, 0);
  g.AddEdge(1, 1);
  const std::vector<double> w = {0.0, 5.0};
  const auto m = MaxWeightMatching(g, w);
  EXPECT_NEAR(MatchingWeight(m, w), 5.0, 1e-12);
}

TEST(MaxWeightMatchingTest, ParallelEdgesPickHeavier) {
  BipartiteGraph g(1, 1);
  g.AddEdge(0, 0);
  const int heavy = g.AddEdge(0, 0);
  const std::vector<double> w = {2.0, 7.0};
  const auto m = MaxWeightMatching(g, w);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0], heavy);
}

TEST(HopcroftKarpSolverTest, ReusedSolverMatchesOneShotResults) {
  Rng rng(31);
  HopcroftKarpSolver solver;
  std::vector<int> reused;
  for (int trial = 0; trial < 40; ++trial) {
    Rng r = rng.Fork(trial);
    const BipartiteGraph g = RandomGraph(r.UniformInt(1, 8),
                                         r.UniformInt(1, 8),
                                         r.UniformInt(0, 20), r);
    solver.Solve(g, &reused);
    // Buffer reuse across wildly different graphs must not change results.
    EXPECT_EQ(reused, MaxCardinalityMatching(g));
  }
}

TEST(HopcroftKarpSolverTest, WarmStartStaysMaximumAndValid) {
  Rng rng(41);
  HopcroftKarpSolver solver;
  for (int trial = 0; trial < 40; ++trial) {
    Rng r = rng.Fork(trial);
    const int nl = r.UniformInt(2, 8);
    const int nr = r.UniformInt(2, 8);
    BipartiteGraph g = RandomGraph(nl, nr, r.UniformInt(1, 16), r);
    std::vector<int> cold;
    solver.Solve(g, &cold);
    // Seed with a prefix of the cold matching (simulating survivors of a
    // backlog change), then grow the graph and warm-solve: the result must
    // be a maximum matching of the new graph.
    std::vector<int> seed(cold.begin(),
                          cold.begin() + cold.size() / 2);
    for (int extra = r.UniformInt(0, 6); extra > 0; --extra) {
      g.AddEdge(r.UniformInt(0, nl - 1), r.UniformInt(0, nr - 1));
    }
    std::vector<int> warm;
    solver.SolveWarm(g, seed, &warm);
    ASSERT_TRUE(IsMatching(g, warm));
    EXPECT_EQ(warm.size(), MaxCardinalityMatching(g).size());
  }
}

}  // namespace
}  // namespace flowsched
