// VertexWeightMatcher against the Hungarian (MaxWeightMatcher) and the
// brute-force oracle. Every weight here is an integer, so "same optimum"
// is an exact comparison.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/online/policy.h"
#include "graph/bipartite_graph.h"
#include "graph/expansion.h"
#include "graph/max_weight_matching.h"
#include "graph/vertex_weight_matching.h"
#include "util/rng.h"

#include "brute_force_matching.h"

namespace flowsched {
namespace {

struct Problem {
  BipartiteGraph g{0, 0};
  std::vector<int> left_w;
  std::vector<int> right_w;

  // Per-edge weights for the edge-weight matchers.
  std::vector<double> EdgeWeights() const {
    std::vector<double> w;
    for (const BipartiteGraph::Edge& e : g.edges()) {
      w.push_back(left_w[e.u] + right_w[e.v]);
    }
    return w;
  }
};

// Random multigraph (parallel edges likely) with vertex weights in [0, 3]:
// many zero-weight vertices and many ties.
Problem RandomProblem(Rng& rng, int max_side, int max_edges) {
  Problem p;
  const int nl = rng.UniformInt(0, max_side);
  const int nr = rng.UniformInt(0, max_side);
  std::vector<BipartiteGraph::Edge> edges;
  if (nl > 0 && nr > 0) {
    for (int e = rng.UniformInt(0, max_edges); e > 0; --e) {
      // Braced initialisation draws u before v on every compiler.
      edges.push_back({rng.UniformInt(0, nl - 1), rng.UniformInt(0, nr - 1)});
    }
  }
  p.g = BipartiteGraph(nl, nr, edges);
  for (int u = 0; u < nl; ++u) p.left_w.push_back(rng.UniformInt(0, 3));
  for (int v = 0; v < nr; ++v) p.right_w.push_back(rng.UniformInt(0, 3));
  return p;
}

// MaxWeight's own problem: a backlog over ports of capacity 1-3 expanded
// into replicas, every replica weighted by its port's queue length.
Problem BacklogProblem(Rng& rng, int max_ports, int max_flows) {
  const int ni = rng.UniformInt(1, max_ports);
  const int no = rng.UniformInt(1, max_ports);
  std::vector<Capacity> in_cap(ni);
  std::vector<Capacity> out_cap(no);
  for (Capacity& c : in_cap) c = rng.UniformInt(1, 3);
  for (Capacity& c : out_cap) c = rng.UniformInt(1, 3);
  const SwitchSpec sw(in_cap, out_cap);
  std::vector<PendingFlow> pending(rng.UniformInt(0, max_flows));
  std::vector<int> in_queue(ni, 0);
  std::vector<int> out_queue(no, 0);
  for (PendingFlow& f : pending) {
    f.src = rng.UniformInt(0, ni - 1);
    f.dst = rng.UniformInt(0, no - 1);
    ++in_queue[f.src];
    ++out_queue[f.dst];
  }
  Problem p;
  BacklogGraphBuilder builder;
  p.g = builder.Build(sw, pending);
  p.left_w.assign(p.g.num_left(), 0);
  p.right_w.assign(p.g.num_right(), 0);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const BipartiteGraph::Edge& e = p.g.edge(static_cast<int>(i));
    p.left_w[e.u] = in_queue[pending[i].src];
    p.right_w[e.v] = out_queue[pending[i].dst];
  }
  return p;
}

std::vector<int> SolveVertex(VertexWeightMatcher& m, const Problem& p) {
  std::vector<int> out;
  m.Solve(p.g, p.left_w, p.right_w, &out);
  return out;
}

TEST(VertexWeightMatcherTest, MatchesHungarianWeight) {
  Rng rng(2101);
  VertexWeightMatcher reused;  // Scratch carried across problems.
  for (int trial = 0; trial < 3000; ++trial) {
    Rng r = rng.Fork(trial);
    const Problem p = trial % 2 == 0 ? RandomProblem(r, 12, 40)
                                     : BacklogProblem(r, 8, 40);
    const std::vector<double> w = p.EdgeWeights();
    const std::vector<int> got = SolveVertex(reused, p);
    ASSERT_TRUE(IsMatching(p.g, got)) << "trial " << trial;
    EXPECT_EQ(MatchingWeight(got, w),
              MatchingWeight(MaxWeightMatching(p.g, w), w))
        << "trial " << trial;
    for (int e : got) EXPECT_GT(w[e], 0.0) << "trial " << trial;
    // Reused scratch never changes the answer.
    VertexWeightMatcher fresh;
    EXPECT_EQ(got, SolveVertex(fresh, p)) << "trial " << trial;
  }
}

TEST(VertexWeightMatcherTest, MatchesBruteForceOnSmallGraphs) {
  Rng rng(2102);
  VertexWeightMatcher m;
  for (int trial = 0; trial < 1500; ++trial) {
    Rng r = rng.Fork(trial);
    const Problem p = trial % 2 == 0 ? RandomProblem(r, 5, 14)
                                     : BacklogProblem(r, 3, 14);
    const std::vector<double> w = p.EdgeWeights();
    const std::vector<int> got = SolveVertex(m, p);
    ASSERT_TRUE(IsMatching(p.g, got)) << "trial " << trial;
    EXPECT_EQ(MatchingWeight(got, w), BruteForceMaxWeight(p.g, w))
        << "trial " << trial;
  }
}

TEST(VertexWeightMatcherTest, EmptyAndZeroWeightGraphsMatchNothing) {
  VertexWeightMatcher m;
  std::vector<int> out = {7};
  m.Solve(BipartiteGraph(0, 0), {}, {}, &out);
  EXPECT_TRUE(out.empty());
  BipartiteGraph edgeless(3, 2);
  const std::vector<int> l3 = {1, 2, 3};
  const std::vector<int> r2 = {4, 5};
  m.Solve(edgeless, l3, r2, &out);
  EXPECT_TRUE(out.empty());
  const BipartiteGraph g(2, 2, {{0, 0}, {1, 1}});
  const std::vector<int> zeros = {0, 0};
  m.Solve(g, zeros, zeros, &out);
  EXPECT_TRUE(out.empty());
}

TEST(VertexWeightMatcherTest, TiesGoToTheOldestEdge) {
  VertexWeightMatcher m;
  std::vector<int> out;
  // Parallel edges: the lower index wins.
  const BipartiteGraph parallel(1, 1, {{0, 0}, {0, 0}});
  const std::vector<int> one = {1};
  m.Solve(parallel, one, one, &out);
  EXPECT_EQ(out, std::vector<int>({0}));
  // Two equal-weight inputs want one output: the one with the older edge
  // (left vertex 1, edge 0) is visited first and keeps it.
  const BipartiteGraph contested(2, 1, {{1, 0}, {0, 0}});
  const std::vector<int> equal = {2, 2};
  const std::vector<int> zero = {0};
  m.Solve(contested, equal, zero, &out);
  EXPECT_EQ(out, std::vector<int>({0}));
  // A heavier input beats an older one.
  const std::vector<int> heavier = {3, 2};
  m.Solve(contested, heavier, zero, &out);
  EXPECT_EQ(out, std::vector<int>({1}));
}

// The weight tests above accept any maximum matching; this pins the exact
// edges, so a rewrite that returns a different but equally heavy matching
// (a changed tie-break or scan order) fails here. The hash is FNV-1a over
// every returned list (its length, then its edge ids).
TEST(VertexWeightMatcherTest, ReturnedEdgesKeepTheirFingerprint) {
  Rng rng(2103);
  VertexWeightMatcher m;
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t x) {
    hash = (hash ^ x) * 1099511628211ull;
  };
  for (int trial = 0; trial < 4000; ++trial) {
    Rng r = rng.Fork(trial);
    Problem p;
    switch (trial % 4) {
      case 0: p = RandomProblem(r, 12, 40); break;
      case 1: p = BacklogProblem(r, 8, 40); break;
      case 2: p = RandomProblem(r, 40, 300); break;
      default: p = BacklogProblem(r, 24, 400); break;
    }
    const std::vector<int> got = SolveVertex(m, p);
    mix(got.size());
    for (int e : got) mix(static_cast<std::uint64_t>(e));
  }
  EXPECT_EQ(hash, 13929094160778542315ull);
}

// Input i > 0 is adjacent to outputs i-1 (first) and i; input 0 only to
// output 0, and it is visited last. Inputs 1..n-1 take outputs 0..n-2, so
// input 0's one augmenting path runs the whole chain: a recursive search
// would need n frames of native stack.
TEST(VertexWeightMatcherTest, LongAugmentingChainNeedsNoDeepStack) {
  constexpr int kN = 150000;
  for (bool left_side : {true, false}) {
    std::vector<BipartiteGraph::Edge> edges;
    const auto add = [&](int own, int other) {
      edges.push_back(left_side ? BipartiteGraph::Edge{own, other}
                                : BipartiteGraph::Edge{other, own});
    };
    for (int i = 1; i < kN; ++i) {
      add(i, i - 1);
      add(i, i);
    }
    add(0, 0);
    const BipartiteGraph g(kN, kN, edges);
    const std::vector<int> ones(kN, 1);
    const std::vector<int> zeros(kN, 0);
    VertexWeightMatcher m;
    std::vector<int> out;
    m.Solve(g, left_side ? ones : zeros, left_side ? zeros : ones, &out);
    EXPECT_EQ(static_cast<int>(out.size()), kN);
    EXPECT_TRUE(IsMatching(g, out));
  }
}

}  // namespace
}  // namespace flowsched
