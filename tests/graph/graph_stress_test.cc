// Larger-scale cross-checks for the graph substrate, where brute force is
// out of reach but structural identities still pin down correctness.
#include <gtest/gtest.h>

#include <numeric>

#include "graph/bipartite_graph.h"
#include "graph/edge_coloring.h"
#include "graph/hopcroft_karp.h"
#include "graph/max_weight_matching.h"
#include "util/rng.h"

namespace flowsched {
namespace {

TEST(GraphStressTest, UnitWeightsMakeMaxWeightEqualMaxCardinality) {
  // With weight 1 on every edge, maximum weight == maximum cardinality.
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    Rng r = rng.Fork(trial);
    std::vector<BipartiteGraph::Edge> edges;
    for (int i = 0; i < 150; ++i) {
      edges.push_back({r.UniformInt(0, 29), r.UniformInt(0, 29)});
    }
    const BipartiteGraph g(30, 30, edges);
    const std::vector<double> ones(g.num_edges(), 1.0);
    const auto hk = MaxCardinalityMatching(g);
    const auto mw = MaxWeightMatching(g, ones);
    ASSERT_TRUE(IsMatching(g, mw));
    EXPECT_EQ(mw.size(), hk.size()) << "trial " << trial;
  }
}

BipartiteGraph RandomRegularMultigraph(int ports, int degree, Rng& rng) {
  // Union of `degree` random perfect matchings: a degree-regular bipartite
  // multigraph.
  std::vector<BipartiteGraph::Edge> edges;
  std::vector<int> perm(ports);
  for (int d = 0; d < degree; ++d) {
    std::iota(perm.begin(), perm.end(), 0);
    for (int i = ports - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.UniformInt(0, i)]);
    }
    for (int u = 0; u < ports; ++u) edges.push_back({u, perm[u]});
  }
  return BipartiteGraph(ports, ports, edges);
}

TEST(GraphStressTest, RegularGraphColoringGivesPerfectMatchings) {
  // König on a k-regular bipartite multigraph: exactly k colors and every
  // color class is a PERFECT matching (this is the Birkhoff-von Neumann
  // decomposition used by Theorem 1).
  Rng rng(77);
  for (const int degree : {2, 5, 9}) {
    const int ports = 16;
    BipartiteGraph g = RandomRegularMultigraph(ports, degree, rng);
    const EdgeColoring ec = ColorBipartiteEdges(g);
    ASSERT_TRUE(IsValidEdgeColoring(g, ec));
    EXPECT_EQ(ec.num_colors, degree);
    for (const auto& cls : ec.ColorClasses()) {
      EXPECT_EQ(static_cast<int>(cls.size()), ports);  // Perfect.
    }
  }
}

TEST(GraphStressTest, HopcroftKarpPerfectOnRegular) {
  // Hall's theorem: regular bipartite graphs have perfect matchings.
  Rng rng(78);
  for (int trial = 0; trial < 5; ++trial) {
    Rng r = rng.Fork(trial);
    BipartiteGraph g = RandomRegularMultigraph(50, 3, r);
    EXPECT_EQ(MaxCardinalityMatching(g).size(), 50u);
  }
}

TEST(GraphStressTest, LargeColoringStress) {
  Rng rng(79);
  std::vector<BipartiteGraph::Edge> edges;
  for (int i = 0; i < 12000; ++i) {
    edges.push_back({rng.UniformInt(0, 149), rng.UniformInt(0, 149)});
  }
  const BipartiteGraph g(150, 150, edges);
  const EdgeColoring ec = ColorBipartiteEdges(g);
  EXPECT_TRUE(IsValidEdgeColoring(g, ec));
  EXPECT_EQ(ec.num_colors, g.MaxDegree());
}

TEST(GraphStressTest, MaxWeightMatchesGreedyBoundLargeScale) {
  // Greedy is a 1/2-approximation; max-weight must never lose to it.
  Rng rng(80);
  std::vector<BipartiteGraph::Edge> edges;
  for (int i = 0; i < 300; ++i) {
    edges.push_back({rng.UniformInt(0, 39), rng.UniformInt(0, 39)});
  }
  const BipartiteGraph g(40, 40, edges);
  std::vector<double> w(g.num_edges());
  for (auto& x : w) x = static_cast<double>(rng.UniformInt(1, 1000));
  const auto mw = MaxWeightMatching(g, w);
  ASSERT_TRUE(IsMatching(g, mw));
  // Compare to a simple greedy-by-weight (inline to avoid extra deps).
  std::vector<int> order(g.num_edges());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) { return w[a] > w[b]; });
  std::vector<char> lu(40, 0), ru(40, 0);
  double greedy = 0.0;
  for (int e : order) {
    if (!lu[g.edge(e).u] && !ru[g.edge(e).v]) {
      lu[g.edge(e).u] = ru[g.edge(e).v] = 1;
      greedy += w[e];
    }
  }
  EXPECT_GE(MatchingWeight(mw, w) + 1e-9, greedy);
}

}  // namespace
}  // namespace flowsched
