// Test-only access to MaxWeightMatcher's internals (a friend of the
// matcher): the lane the last solve chose, a solve forced onto the double
// lane, and the dual certificate the last solve left behind.
#ifndef FLOWSCHED_TESTS_GRAPH_MAX_WEIGHT_MATCHER_TEST_PEER_H_
#define FLOWSCHED_TESTS_GRAPH_MAX_WEIGHT_MATCHER_TEST_PEER_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/max_weight_matching.h"

namespace flowsched {

struct MaxWeightMatcherTestPeer {
  // Whether the last non-empty solve chose the int32 lane.
  static bool IntLane(const MaxWeightMatcher& m) { return m.int_lane_; }

  // Runs one solve with the int32 lane switched off, whatever the weights.
  static void SolveOnDoubleLane(MaxWeightMatcher& m, const BipartiteGraph& g,
                                std::span<const double> weight,
                                std::vector<int>* out) {
    out->clear();
    if (!m.PrepareProblem(g, weight)) return;
    m.int_lane_ = false;
    m.BuildCost(g, weight);
    m.RunHungarian();
    m.EmitMatching(weight, out);
  }

  // Dual certificate of the last non-empty solve, over the current lane's
  // matrix C and potentials (u, v). Feasibility: max over all cells of
  // u_i + v_j - C(i,j), <= 0 up to rounding. Tightness: max
  // |u_i + v_j - C(i,j)| over matched cells, 0 at optimality.
  static double MaxDualViolation(const MaxWeightMatcher& m) {
    double worst = 0.0;
    for (int i = 1; i <= m.rows_; ++i) {
      for (int j = 1; j <= m.cols_; ++j) {
        worst = std::max(worst, ReducedCost(m, i, j));
      }
    }
    return worst;
  }
  static double MaxMatchedSlack(const MaxWeightMatcher& m) {
    double worst = 0.0;
    for (int j = 1; j <= m.cols_; ++j) {
      if (m.p_[j] != 0) {
        worst = std::max(worst, std::fabs(ReducedCost(m, m.p_[j], j)));
      }
    }
    return worst;
  }

 private:
  // u_i + v_j - C(i,j) for 1-based row i and column j.
  static double ReducedCost(const MaxWeightMatcher& m, int i, int j) {
    const std::size_t rc = static_cast<std::size_t>(i - 1) * m.cols_ + j - 1;
    return m.int_lane_
               ? static_cast<double>(m.ilane_.u[i]) + m.ilane_.v[j] -
                     m.ilane_.cost[rc]
               : m.dlane_.u[i] + m.dlane_.v[j] - m.dlane_.cost[rc];
  }
};

}  // namespace flowsched

#endif  // FLOWSCHED_TESTS_GRAPH_MAX_WEIGHT_MATCHER_TEST_PEER_H_
