// Exponential-time exact matchers used as ground truth in property tests.
// Only call on tiny graphs (num_edges <= ~20).
#ifndef FLOWSCHED_TESTS_GRAPH_BRUTE_FORCE_MATCHING_H_
#define FLOWSCHED_TESTS_GRAPH_BRUTE_FORCE_MATCHING_H_

#include <algorithm>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"
#include "util/check.h"

namespace flowsched {
namespace brute_force_internal {

// Recursively decide edge `e` in/out, tracking used endpoints.
template <typename Score>
void Search(const BipartiteGraph& g, int e, std::vector<char>& left_used,
            std::vector<char>& right_used, double current, Score score,
            double& best) {
  best = std::max(best, current);
  if (e >= g.num_edges()) return;
  // Skip edge e.
  Search(g, e + 1, left_used, right_used, current, score, best);
  const auto& edge = g.edge(e);
  if (!left_used[edge.u] && !right_used[edge.v]) {
    left_used[edge.u] = 1;
    right_used[edge.v] = 1;
    Search(g, e + 1, left_used, right_used, current + score(e), score, best);
    left_used[edge.u] = 0;
    right_used[edge.v] = 0;
  }
}

}  // namespace brute_force_internal

// Maximum cardinality by exhaustive search over edge subsets.
inline int BruteForceMaxCardinality(const BipartiteGraph& g) {
  FS_CHECK_LE(g.num_edges(), 24);
  std::vector<char> left_used(g.num_left(), 0);
  std::vector<char> right_used(g.num_right(), 0);
  double best = 0.0;
  brute_force_internal::Search(
      g, 0, left_used, right_used, 0.0, [](int) { return 1.0; }, best);
  return static_cast<int>(best);
}

// Maximum total weight over all matchings.
inline double BruteForceMaxWeight(const BipartiteGraph& g,
                                  std::span<const double> weight) {
  FS_CHECK_LE(g.num_edges(), 24);
  FS_CHECK_EQ(static_cast<int>(weight.size()), g.num_edges());
  std::vector<char> left_used(g.num_left(), 0);
  std::vector<char> right_used(g.num_right(), 0);
  double best = 0.0;
  brute_force_internal::Search(
      g, 0, left_used, right_used, 0.0, [&](int e) { return weight[e]; },
      best);
  return best;
}

}  // namespace flowsched

#endif  // FLOWSCHED_TESTS_GRAPH_BRUTE_FORCE_MATCHING_H_
