#include "graph/edge_coloring.h"

#include <gtest/gtest.h>

#include <tuple>

#include "graph/bipartite_graph.h"
#include "util/rng.h"

namespace flowsched {
namespace {

TEST(EdgeColoringTest, SingleEdge) {
  BipartiteGraph g(1, 1);
  g.AddEdge(0, 0);
  const EdgeColoring ec = ColorBipartiteEdges(g);
  EXPECT_EQ(ec.num_colors, 1);
  EXPECT_TRUE(IsValidEdgeColoring(g, ec));
}

TEST(EdgeColoringTest, CompleteBipartiteK33UsesThreeColors) {
  BipartiteGraph g(3, 3);
  for (int u = 0; u < 3; ++u) {
    for (int v = 0; v < 3; ++v) g.AddEdge(u, v);
  }
  const EdgeColoring ec = ColorBipartiteEdges(g);
  EXPECT_EQ(ec.num_colors, 3);
  EXPECT_TRUE(IsValidEdgeColoring(g, ec));
  const auto classes = ec.ColorClasses();
  for (const auto& cls : classes) EXPECT_EQ(cls.size(), 3u);
}

TEST(EdgeColoringTest, ParallelEdgesGetDistinctColors) {
  BipartiteGraph g(1, 1);
  g.AddEdge(0, 0);
  g.AddEdge(0, 0);
  g.AddEdge(0, 0);
  const EdgeColoring ec = ColorBipartiteEdges(g);
  EXPECT_EQ(ec.num_colors, 3);
  EXPECT_TRUE(IsValidEdgeColoring(g, ec));
}

TEST(EdgeColoringTest, PathForcesRecoloring) {
  // A path u0-v0-u1-v1 colored greedily in adversarial order exercises the
  // alternating-path flip.
  BipartiteGraph g(2, 2);
  g.AddEdge(0, 0);
  g.AddEdge(1, 0);
  g.AddEdge(1, 1);
  const EdgeColoring ec = ColorBipartiteEdges(g);
  EXPECT_EQ(ec.num_colors, 2);
  EXPECT_TRUE(IsValidEdgeColoring(g, ec));
}

class EdgeColoringPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(EdgeColoringPropertyTest, AlwaysMaxDegreeColorsAndValid) {
  const auto [nl, nr, edges] = GetParam();
  Rng rng(500 + nl + nr * 7 + edges * 31);
  for (int trial = 0; trial < 25; ++trial) {
    Rng r = rng.Fork(trial);
    BipartiteGraph g(nl, nr);
    for (int i = 0; i < edges; ++i) {
      g.AddEdge(r.UniformInt(0, nl - 1), r.UniformInt(0, nr - 1));
    }
    const EdgeColoring ec = ColorBipartiteEdges(g);
    // König: exactly MaxDegree colors suffice for bipartite multigraphs.
    EXPECT_EQ(ec.num_colors, std::max(g.MaxDegree(), 1));
    ASSERT_TRUE(IsValidEdgeColoring(g, ec));
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomMultigraphs, EdgeColoringPropertyTest,
    ::testing::Values(std::make_tuple(2, 2, 8), std::make_tuple(5, 5, 20),
                      std::make_tuple(10, 10, 60), std::make_tuple(3, 9, 27),
                      std::make_tuple(9, 3, 27), std::make_tuple(20, 20, 200),
                      std::make_tuple(1, 1, 16)));

TEST(EdgeColoringTest, LargeDenseGraphStressValid) {
  Rng rng(123);
  BipartiteGraph g(40, 40);
  for (int i = 0; i < 1200; ++i) {
    g.AddEdge(rng.UniformInt(0, 39), rng.UniformInt(0, 39));
  }
  const EdgeColoring ec = ColorBipartiteEdges(g);
  EXPECT_TRUE(IsValidEdgeColoring(g, ec));
  EXPECT_EQ(ec.num_colors, g.MaxDegree());
}

TEST(EdgeColoringTest, ParallelEdgesOnOnePairUseOneColorEach) {
  BipartiteGraph g(1, 1);
  for (int i = 0; i < 5; ++i) g.AddEdge(0, 0);
  const EdgeColoring ec = ColorBipartiteEdges(g);
  EXPECT_EQ(ec.num_colors, 5);
  EXPECT_TRUE(IsValidEdgeColoring(g, ec));
}

TEST(EdgeColoringTest, EdgelessAndDegreeOneGraphs) {
  const BipartiteGraph empty(3, 5);
  const EdgeColoring ec0 = ColorBipartiteEdges(empty);
  EXPECT_EQ(ec0.num_colors, 1);
  EXPECT_EQ(ec0.color_of_edge.size(), 0u);
  EXPECT_TRUE(IsValidEdgeColoring(empty, ec0));
  // A perfect matching needs exactly one color.
  BipartiteGraph g(6, 6);
  for (int i = 0; i < 6; ++i) g.AddEdge(i, (i + 2) % 6);
  const EdgeColoring ec = ColorBipartiteEdges(g);
  EXPECT_EQ(ec.num_colors, 1);
  EXPECT_TRUE(IsValidEdgeColoring(g, ec));
}

TEST(EdgeColoringTest, RectangularSides) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    Rng r = rng.Fork(trial);
    const int nl = r.UniformInt(1, 12);
    const int nr = r.UniformInt(1, 12);
    const int edges = r.UniformInt(1, 4 * std::max(nl, nr));
    BipartiteGraph g(nl, nr);
    for (int i = 0; i < edges; ++i) {
      g.AddEdge(r.UniformInt(0, nl - 1), r.UniformInt(0, nr - 1));
    }
    const EdgeColoring ec = ColorBipartiteEdges(g);
    EXPECT_EQ(ec.num_colors, std::max(g.MaxDegree(), 1));
    ASSERT_TRUE(IsValidEdgeColoring(g, ec));
  }
}

// 1000+ random multigraphs must each get a valid coloring with exactly
// max(MaxDegree, 1) colors. Shapes sweep sparse-to-dense, skewed sides,
// heavy parallel edges, and hub (degree-concentrated) graphs.
TEST(EdgeColoringTest, MaxDegreeColorsOnRandomMultigraphShapes) {
  Rng rng(2026);
  int checked = 0;
  for (int trial = 0; trial < 1100; ++trial) {
    Rng r = rng.Fork(trial);
    const int shape = trial % 4;
    int nl = 0;
    int nr = 0;
    int edges = 0;
    BipartiteGraph g(1, 1);
    if (shape == 0) {  // Uniform random, sparse to dense.
      nl = r.UniformInt(1, 20);
      nr = r.UniformInt(1, 20);
      edges = r.UniformInt(0, 3 * (nl + nr));
      g = BipartiteGraph(nl, nr);
      for (int i = 0; i < edges; ++i) {
        g.AddEdge(r.UniformInt(0, nl - 1), r.UniformInt(0, nr - 1));
      }
    } else if (shape == 1) {  // Parallel-edge heavy: few distinct pairs.
      nl = r.UniformInt(1, 6);
      nr = r.UniformInt(1, 6);
      edges = r.UniformInt(1, 40);
      g = BipartiteGraph(nl, nr);
      const int pairs = r.UniformInt(1, 3);
      for (int i = 0; i < edges; ++i) {
        const int p = r.UniformInt(0, pairs - 1);
        g.AddEdge((p * 7) % nl, (p * 5) % nr);
      }
    } else if (shape == 2) {  // Hub: one vertex carries most edges.
      nl = r.UniformInt(2, 16);
      nr = r.UniformInt(2, 16);
      edges = r.UniformInt(1, 2 * nr);
      g = BipartiteGraph(nl, nr);
      for (int i = 0; i < edges; ++i) {
        g.AddEdge(0, r.UniformInt(0, nr - 1));
      }
      g.AddEdge(r.UniformInt(1, nl - 1), r.UniformInt(0, nr - 1));
    } else {  // Near-regular: round-robin with a few random extras.
      nl = nr = r.UniformInt(2, 12);
      const int d = r.UniformInt(1, 6);
      g = BipartiteGraph(nl, nr);
      for (int k = 0; k < d; ++k) {
        for (int u = 0; u < nl; ++u) g.AddEdge(u, (u + k) % nr);
      }
      for (int i = r.UniformInt(0, 3); i > 0; --i) {
        g.AddEdge(r.UniformInt(0, nl - 1), r.UniformInt(0, nr - 1));
      }
    }
    const EdgeColoring ec = ColorBipartiteEdges(g);
    ASSERT_EQ(ec.num_colors, std::max(g.MaxDegree(), 1)) << "trial " << trial;
    ASSERT_TRUE(IsValidEdgeColoring(g, ec)) << "trial " << trial;
    ++checked;
  }
  EXPECT_GE(checked, 1000);
}

TEST(EdgeColoringTest, Dense48x48GraphUsesMaxDegreeColors) {
  Rng rng(55);
  BipartiteGraph g(48, 48);
  for (int i = 0; i < 4000; ++i) {
    g.AddEdge(rng.UniformInt(0, 47), rng.UniformInt(0, 47));
  }
  const EdgeColoring ec = ColorBipartiteEdges(g);
  EXPECT_EQ(ec.num_colors, g.MaxDegree());
  EXPECT_TRUE(IsValidEdgeColoring(g, ec));
}

}  // namespace
}  // namespace flowsched
