// Edge-case coverage for the exponential exact matchers. These are the
// ground-truth oracles of the differential tests in this directory, so
// they get their own unit tests instead of being trusted blindly.
#include <gtest/gtest.h>

#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/max_weight_matching.h"
#include "util/rng.h"

#include "brute_force_matching.h"

namespace flowsched {
namespace {

TEST(BruteForceMatchingTest, EmptyGraph) {
  BipartiteGraph g(3, 4);
  EXPECT_EQ(BruteForceMaxCardinality(g), 0);
  EXPECT_EQ(BruteForceMaxWeight(g, {}), 0.0);
}

TEST(BruteForceMatchingTest, SingleEdge) {
  const BipartiteGraph g(2, 2, {{1, 0}});
  EXPECT_EQ(BruteForceMaxCardinality(g), 1);
  EXPECT_EQ(BruteForceMaxWeight(g, std::vector<double>{2.5}), 2.5);
}

TEST(BruteForceMatchingTest, ZeroWeightEdgesAddNothing) {
  const BipartiteGraph g(2, 2, {{0, 0}, {1, 1}});
  EXPECT_EQ(BruteForceMaxWeight(g, std::vector<double>{0.0, 0.0}), 0.0);
  EXPECT_EQ(BruteForceMaxCardinality(g), 2);
}

TEST(BruteForceMatchingTest, TieWeightsPickEitherSideOfTheConflict) {
  // Two edges fight over right vertex 0 with equal weight; one of them
  // plus the free edge is the unique optimal value.
  const BipartiteGraph g(2, 2, {{0, 0}, {1, 0}, {1, 1}});
  EXPECT_EQ(BruteForceMaxWeight(g, std::vector<double>{3.0, 3.0, 1.0}), 4.0);
  EXPECT_EQ(BruteForceMaxCardinality(g), 2);
}

TEST(BruteForceMatchingTest, ParallelEdgesCountOnce) {
  const BipartiteGraph g(1, 1, {{0, 0}, {0, 0}});
  EXPECT_EQ(BruteForceMaxCardinality(g), 1);
  EXPECT_EQ(BruteForceMaxWeight(g, std::vector<double>{1.0, 7.0}), 7.0);
}

TEST(BruteForceMatchingTest, HeavyEdgeBeatsLargerCardinality) {
  // Max-weight and max-cardinality disagree: one weight-10 edge blocks two
  // weight-1 edges.
  // Edges (0,0) and (1,1) weigh 1.0; (0,1) weighs 10.0 and conflicts with
  // both.
  const BipartiteGraph g(2, 2, {{0, 0}, {1, 1}, {0, 1}});
  EXPECT_EQ(BruteForceMaxWeight(g, std::vector<double>{1.0, 1.0, 10.0}),
            10.0);
  EXPECT_EQ(BruteForceMaxCardinality(g), 2);
}

TEST(BruteForceMatchingTest, AgreesWithHungarianOnRandomGraphs) {
  Rng rng(5);
  MaxWeightMatcher exact;
  for (int trial = 0; trial < 200; ++trial) {
    const int nl = rng.UniformInt(1, 5);
    const int nr = rng.UniformInt(1, 5);
    const int ne = rng.UniformInt(0, 10);
    std::vector<BipartiteGraph::Edge> edges;
    std::vector<double> w;
    for (int e = 0; e < ne; ++e) {
      edges.push_back({rng.UniformInt(0, nl - 1), rng.UniformInt(0, nr - 1)});
      w.push_back(static_cast<double>(rng.UniformInt(0, 6)));
    }
    const BipartiteGraph g(nl, nr, edges);
    std::vector<int> out;
    exact.Solve(g, w, &out);
    double hungarian = 0.0;
    for (int e : out) hungarian += w[e];
    EXPECT_DOUBLE_EQ(BruteForceMaxWeight(g, w), hungarian) << "trial "
                                                           << trial;
  }
}

}  // namespace
}  // namespace flowsched
