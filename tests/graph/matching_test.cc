#include <gtest/gtest.h>

#include <span>
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
  std::vector<BipartiteGraph::Edge> list;
  for (int i = 0; i < edges; ++i) {
    list.push_back({rng.UniformInt(0, nl - 1), rng.UniformInt(0, nr - 1)});
  }
  return BipartiteGraph(nl, nr, list);
}

std::vector<int> ToVector(std::span<const int> s) {
  return std::vector<int>(s.begin(), s.end());
}

TEST(BipartiteGraphTest, BasicAccessors) {
  const BipartiteGraph g(2, 3, {{0, 2}, {0, 0}});
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.edge(0).v, 2);
  EXPECT_EQ(g.LeftDegree(0), 2);
  EXPECT_EQ(g.RightDegree(1), 0);
  EXPECT_EQ(g.MaxDegree(), 2);
  EXPECT_EQ(ToVector(g.left_adj(0)), (std::vector<int>{0, 1}));
}

// Every adjacency lists its edges in edge order, whatever order the
// endpoints arrive in: the matchers' "oldest flow wins" tie-break reads
// the first fitting slot. The slot's far endpoint is the edge's.
TEST(BipartiteGraphTest, AdjacencyComesBackInEdgeOrder) {
  Rng rng(41);
  for (int trial = 0; trial < 50; ++trial) {
    Rng r = rng.Fork(trial);
    const BipartiteGraph g = RandomGraph(r.UniformInt(1, 9),
                                         r.UniformInt(1, 9),
                                         r.UniformInt(0, 60), r);
    std::vector<std::vector<int>> left(g.num_left());
    std::vector<std::vector<int>> right(g.num_right());
    for (int e = 0; e < g.num_edges(); ++e) {
      left[g.edge(e).u].push_back(e);
      right[g.edge(e).v].push_back(e);
    }
    for (int u = 0; u < g.num_left(); ++u) {
      ASSERT_EQ(ToVector(g.left_adj(u)), left[u]) << "trial " << trial;
      for (int s = g.left().start[u]; s < g.left().start[u + 1]; ++s) {
        EXPECT_EQ(g.left().other[s], g.edge(g.left().edge[s]).v);
      }
    }
    for (int v = 0; v < g.num_right(); ++v) {
      ASSERT_EQ(ToVector(g.right_adj(v)), right[v]) << "trial " << trial;
      for (int s = g.right().start[v]; s < g.right().start[v + 1]; ++s) {
        EXPECT_EQ(g.right().other[s], g.edge(g.right().edge[s]).u);
      }
    }
  }
}

// Fill() keeps its buffers: a fill with fewer vertices and edges and then
// one with more again must each read exactly like a fresh graph.
TEST(BipartiteGraphTest, RefillThatShrinksThenRegrowsLeavesNoStaleSlot) {
  const std::vector<BipartiteGraph::Edge> big = {
      {0, 3}, {4, 0}, {2, 2}, {4, 3}, {1, 1}, {0, 0}, {3, 4}};
  const std::vector<BipartiteGraph::Edge> small = {{1, 0}, {0, 1}};
  BipartiteGraph g(5, 5, big);
  const auto expect_like_fresh = [&g](int nl, int nr,
                                      const std::vector<BipartiteGraph::Edge>&
                                          edges) {
    const BipartiteGraph fresh(nl, nr, edges);
    ASSERT_EQ(g.num_left(), nl);
    ASSERT_EQ(g.num_right(), nr);
    ASSERT_EQ(g.num_edges(), fresh.num_edges());
    EXPECT_EQ(g.left().start, fresh.left().start);
    EXPECT_EQ(g.left().edge, fresh.left().edge);
    EXPECT_EQ(g.left().other, fresh.left().other);
    EXPECT_EQ(g.right().start, fresh.right().start);
    EXPECT_EQ(g.right().edge, fresh.right().edge);
    EXPECT_EQ(g.right().other, fresh.right().other);
    EXPECT_EQ(g.MaxDegree(), fresh.MaxDegree());
  };
  g.Fill(2, 2, 2, [&small](int e) { return small[e]; });
  expect_like_fresh(2, 2, small);
  EXPECT_EQ(static_cast<int>(g.left().start.size()), 3);
  g.Fill(5, 5, 7, [&big](int e) { return big[e]; });
  expect_like_fresh(5, 5, big);
  g.Fill(0, 0, 0, [&big](int e) { return big[e]; });
  expect_like_fresh(0, 0, {});
  EXPECT_EQ(g.MaxDegree(), 0);
}

TEST(BipartiteGraphTest, IsMatchingRejectsSharedEndpointsAndDuplicates) {
  const BipartiteGraph g(2, 2, {{0, 0}, {0, 1}, {1, 1}});
  const int a = 0;
  const int b = 1;
  const int c = 2;
  EXPECT_TRUE(IsMatching(g, std::vector<int>{a, c}));
  EXPECT_FALSE(IsMatching(g, std::vector<int>{a, b}));  // Share left 0.
  EXPECT_FALSE(IsMatching(g, std::vector<int>{b, c}));  // Share right 1.
  EXPECT_FALSE(IsMatching(g, std::vector<int>{a, a}));
}

TEST(HopcroftKarpTest, PerfectMatchingOnCycle) {
  std::vector<BipartiteGraph::Edge> edges;
  for (int i = 0; i < 3; ++i) {
    edges.push_back({i, i});
    edges.push_back({i, (i + 1) % 3});
  }
  const BipartiteGraph g(3, 3, edges);
  const auto m = MaxCardinalityMatching(g);
  EXPECT_TRUE(IsMatching(g, m));
  EXPECT_EQ(m.size(), 3u);
}

TEST(HopcroftKarpTest, EmptyGraph) {
  BipartiteGraph g(4, 4);
  EXPECT_TRUE(MaxCardinalityMatching(g).empty());
}

TEST(HopcroftKarpTest, StarGraphMatchesOne) {
  const BipartiteGraph g(1, 5, {{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}});
  EXPECT_EQ(MaxCardinalityMatching(g).size(), 1u);
}

TEST(HopcroftKarpTest, HandlesParallelEdges) {
  const BipartiteGraph g(2, 2, {{0, 0}, {0, 0}, {1, 1}});
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
  const BipartiteGraph g(2, 2, {{0, 0}, {0, 1}, {1, 1}});
  const int light1 = 0;
  const int heavy = 1;
  const int light2 = 2;
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
  const BipartiteGraph g(2, 2, {{0, 0}, {1, 1}});
  const std::vector<double> w = {0.0, 5.0};
  const auto m = MaxWeightMatching(g, w);
  EXPECT_NEAR(MatchingWeight(m, w), 5.0, 1e-12);
}

TEST(MaxWeightMatchingTest, ParallelEdgesPickHeavier) {
  const BipartiteGraph g(1, 1, {{0, 0}, {0, 0}});
  const int heavy = 1;
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

}  // namespace
}  // namespace flowsched
