// Differential tests for MaxWeightMatcher's two value lanes. Integral
// weights up to kIntLaneMaxWeight solve in int32, everything else in double;
// the int32 lane is only sound because on such problems it makes exactly
// the comparisons the double lane makes. So every integral problem here is
// solved on both lanes (the double one forced through a test peer) and the
// edge sets must be identical, and small ones must also reach the
// brute-force optimum.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/max_weight_matching.h"
#include "util/rng.h"

#include "brute_force_matching.h"
#include "max_weight_matcher_test_peer.h"

namespace flowsched {
namespace {

using Peer = MaxWeightMatcherTestPeer;

struct Problem {
  BipartiteGraph g{0, 0};
  std::vector<double> w;
};

// Random bipartite multigraph with integral weights in [lo, hi].
Problem RandomProblem(int nl, int nr, int edges, std::int64_t lo,
                      std::int64_t hi, Rng& rng) {
  Problem p;
  std::vector<BipartiteGraph::Edge> list;
  for (int e = 0; e < edges; ++e) {
    list.push_back({rng.UniformInt(0, nl - 1), rng.UniformInt(0, nr - 1)});
    p.w.push_back(static_cast<double>(
        lo + static_cast<std::int64_t>(
                 rng.UniformU64(static_cast<std::uint64_t>(hi - lo + 1)))));
  }
  p.g = BipartiteGraph(nl, nr, list);
  return p;
}

double MatchedWeight(const std::vector<int>& edges,
                     const std::vector<double>& w) {
  double total = 0.0;
  for (int e : edges) total += w[e];
  return total;
}

std::vector<double> Scaled(const std::vector<double>& w, double factor) {
  std::vector<double> out;
  for (double x : w) out.push_back(x * factor);
  return out;
}

TEST(MatchingLanesTest, LaneFollowsWeightIntegralityAndMagnitude) {
  const BipartiteGraph g(2, 2, {{0, 0}, {1, 1}});
  MaxWeightMatcher m;
  std::vector<int> out;
  const double cap = MaxWeightMatcher::kIntLaneMaxWeight;
  const struct {
    std::vector<double> w;
    bool int_lane;
  } cases[] = {
      {{0.0, 3.0}, true},      {{cap, 1.0}, true},   {{cap + 1, 1.0}, false},
      {{2.5, 1.0}, false},     {{1e-9, 0.0}, false}, {{-0.0, 4.0}, true},
      {{1e300, 1.0}, false},
  };
  for (const auto& c : cases) {
    m.Solve(g, c.w, &out);
    EXPECT_EQ(Peer::IntLane(m), c.int_lane) << c.w[0] << ", " << c.w[1];
    EXPECT_EQ(out.size(), static_cast<std::size_t>(
                              (c.w[0] > 0.0 ? 1 : 0) + (c.w[1] > 0.0 ? 1 : 0)));
  }
}

// Int lane vs forced double lane on integral problems: identical edge sets,
// across shapes (transposed too), densities, tie-heavy weights and weights
// at the top of the int32 lane's range.
TEST(MatchingLanesTest, IntLaneMatchesDoubleLaneEdgeForEdge) {
  const double cap = MaxWeightMatcher::kIntLaneMaxWeight;
  const struct {
    std::int64_t lo;
    std::int64_t hi;
  } ranges[] = {{0, 1},
                {0, 3},
                {0, 12},
                {0, 1000},
                {0, static_cast<std::int64_t>(cap)},
                {static_cast<std::int64_t>(cap) - 3,
                 static_cast<std::int64_t>(cap)}};
  const struct {
    int nl;
    int nr;
    int edges;
  } shapes[] = {{1, 1, 1},   {3, 5, 6},   {5, 3, 9},    {8, 8, 40},
                {17, 23, 90}, {23, 17, 300}, {40, 40, 900}, {70, 90, 2000}};
  Rng rng(20260517);
  MaxWeightMatcher int_solver;
  MaxWeightMatcher dbl_solver;
  std::vector<int> int_out;
  std::vector<int> dbl_out;
  int solved = 0;
  for (const auto& r : ranges) {
    for (const auto& s : shapes) {
      for (int rep = 0; rep < 12; ++rep) {
        const Problem p = RandomProblem(s.nl, s.nr, s.edges, r.lo, r.hi, rng);
        int_solver.Solve(p.g, p.w, &int_out);
        ASSERT_TRUE(Peer::IntLane(int_solver));
        Peer::SolveOnDoubleLane(dbl_solver, p.g, p.w, &dbl_out);
        ASSERT_EQ(int_out, dbl_out)
            << "weights [" << r.lo << ", " << r.hi << "] shape " << s.nl
            << "x" << s.nr << " edges " << s.edges << " rep " << rep;
        ++solved;
      }
    }
  }
  EXPECT_EQ(solved, 6 * 8 * 12);
}

// Small problems: the int lane reaches the brute-force optimum.
TEST(MatchingLanesTest, IntLaneIsOptimalOnSmallGraphs) {
  Rng rng(77);
  MaxWeightMatcher m;
  std::vector<int> out;
  for (int rep = 0; rep < 400; ++rep) {
    const int nl = rng.UniformInt(1, 5);
    const int nr = rng.UniformInt(1, 5);
    const int edges = rng.UniformInt(1, 12);
    const std::int64_t hi = rep % 2 == 0 ? 3 : 50;
    const Problem p = RandomProblem(nl, nr, edges, 0, hi, rng);
    m.Solve(p.g, p.w, &out);
    ASSERT_TRUE(Peer::IntLane(m));
    EXPECT_EQ(MatchedWeight(out, p.w), BruteForceMaxWeight(p.g, p.w))
        << "rep " << rep;
  }
}

// Weights that must take the double lane — just past the magnitude guard,
// or fractional — still agree with the int lane: scaling every weight by a
// power of two is exact in double, so the double solve of 2^k * w makes
// the comparisons of the int solve of w and returns the same edges.
TEST(MatchingLanesTest, DoubleLaneProblemsAgreeWithIntLaneOnScaledWeights) {
  Rng rng(4242);
  MaxWeightMatcher int_solver;
  MaxWeightMatcher dbl_solver;
  std::vector<int> int_out;
  std::vector<int> dbl_out;
  const double cap = MaxWeightMatcher::kIntLaneMaxWeight;
  int double_lane_solves = 0;
  for (int rep = 0; rep < 200; ++rep) {
    const int n = rng.UniformInt(2, 30);
    const Problem p = RandomProblem(n, rng.UniformInt(2, 30),
                                    rng.UniformInt(1, 6 * n), 0, 7, rng);
    int_solver.Solve(p.g, p.w, &int_out);
    ASSERT_TRUE(Peer::IntLane(int_solver));
    // Max weight 7 * 2^24 > 2^26 (guard), and halves (fractional).
    for (const double factor : {cap / 4, 0.5}) {
      const std::vector<double> w = Scaled(p.w, factor);
      dbl_solver.Solve(p.g, w, &dbl_out);
      bool fits = true;
      for (double x : w) fits = fits && x <= cap && x == std::floor(x);
      ASSERT_EQ(Peer::IntLane(dbl_solver), fits) << "factor " << factor;
      double_lane_solves += fits ? 0 : 1;
      ASSERT_EQ(int_out, dbl_out) << "rep " << rep << " factor " << factor;
    }
  }
  EXPECT_GT(double_lane_solves, 300);
  // Just above the guard on a small graph: double lane, brute-force optimal.
  std::vector<BipartiteGraph::Edge> edges;
  std::vector<double> w;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      edges.push_back({i, j});
      w.push_back(cap + 1 + ((i * 2 + j) % 3));
    }
  }
  const BipartiteGraph g(3, 3, edges);
  int_solver.Solve(g, w, &int_out);
  EXPECT_FALSE(Peer::IntLane(int_solver));
  EXPECT_EQ(MatchedWeight(int_out, w), BruteForceMaxWeight(g, w));
}

}  // namespace
}  // namespace flowsched
