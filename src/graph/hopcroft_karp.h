// Hopcroft–Karp maximum-cardinality bipartite matching, O(E sqrt(V)).
//
// Used by the MaxCard online heuristic (paper §5.2.1) and as a subroutine in
// feasibility checks. The solver class keeps its BFS/DFS scratch alive so
// per-round calls in the simulator hot loop do not touch the heap; the free
// function remains for one-shot callers.
#ifndef FLOWSCHED_GRAPH_HOPCROFT_KARP_H_
#define FLOWSCHED_GRAPH_HOPCROFT_KARP_H_

#include <vector>

#include "graph/bipartite_graph.h"

namespace flowsched {

class HopcroftKarpSolver {
 public:
  // Overwrites *out with the edge indices of a maximum-cardinality matching.
  // Buffers persist across calls; the result is exactly
  // MaxCardinalityMatching()'s.
  void Solve(const BipartiteGraph& g, std::vector<int>* out);

 private:
  bool Bfs(const BipartiteGraph& g);
  bool Dfs(const BipartiteGraph& g, int u);

  std::vector<int> match_left_;   // Edge id matched at left vertex, or -1.
  std::vector<int> match_right_;
  std::vector<int> dist_;
  std::vector<int> queue_;  // Flat FIFO reused by Bfs.
};

// Returns the edge indices of a maximum-cardinality matching.
std::vector<int> MaxCardinalityMatching(const BipartiteGraph& g);

}  // namespace flowsched

#endif  // FLOWSCHED_GRAPH_HOPCROFT_KARP_H_
