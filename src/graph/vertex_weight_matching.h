// Exact maximum-weight bipartite matching when every edge weight is the sum
// of two vertex weights, w(u, v) = left_weight[u] + right_weight[v].
//
// MaxWeight (paper §5.2.1) weighs edge (src, dst) by in_queue[src] +
// out_queue[dst], so a matching's weight is the weight of the left vertices
// it covers plus the weight of the right vertices it covers. That structure
// gives an O(V·E) exact solve with no dense matrix:
//
//   1. The left vertex sets a matching can cover form a transversal
//      matroid, so the matroid greedy finds a heaviest coverable set A:
//      visit left vertices by falling weight and keep each one an
//      augmenting-path search can add (M1 covers A).
//   2. The same on the right side gives B (M2 covers B).
//   3. Mendelsohn–Dulmage: some matching inside M1 ∪ M2 covers A ∪ B. Start
//      from M1; from every right vertex M2 covers and M1 does not, walk the
//      alternating path of M1 ∪ M2 and swap M2's edges in.
//
// No matching covers a heavier left set than A or a heavier right set than
// B, so the result's weight w(A) + w(B) is the maximum. Port replicas
// (capacity > 1) fit unchanged: every replica carries its port's weight.
//
// Ties between equal-weight vertices go to the lower first incident edge
// index (on the backlog graph, the vertex's oldest pending flow), and every
// adjacency scan runs in edge order, so among parallel edges the oldest
// wins. Zero-weight vertices are never added, so every returned edge has
// positive weight.
//
// The searches walk the graph's CSR slots (bipartite_graph.h), reading the
// far endpoint from the slot itself. Each greedy stops once every far-side
// vertex with an edge is matched: no augmenting path exists after that,
// and a failed search changes nothing, so the stop cannot change the
// result. Scratch persists across calls: steady-state solves allocate
// nothing.
#ifndef FLOWSCHED_GRAPH_VERTEX_WEIGHT_MATCHING_H_
#define FLOWSCHED_GRAPH_VERTEX_WEIGHT_MATCHING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"

namespace flowsched {

class VertexWeightMatcher {
 public:
  // Overwrites *out with the edge indices of a maximum-weight matching of
  // `g` under edge weights left_weight[u] + right_weight[v]
  // (left_weight.size() == g.num_left(), right_weight.size() ==
  // g.num_right(), all weights >= 0), listed by ascending left vertex.
  void Solve(const BipartiteGraph& g, std::span<const int> left_weight,
             std::span<const int> right_weight, std::vector<int>* out);

 private:
  // One augmenting-path search frame: an own-side vertex, its next and
  // end adjacency slots, and the slot it descended through.
  struct Frame {
    int next;
    int end;
    int vertex;
    int via;
  };

  // Matroid greedy over one side's vertices (kLeft: the left side). Leaves
  // own_match[x] as x's matched edge id and other_match[y] as y's matched
  // own-side vertex, each -1 when free.
  template <bool kLeft>
  void Greedy(const BipartiteGraph& g, std::span<const int> weight,
              std::vector<int>& own_match, std::vector<int>& other_match);
  // One augmenting-path search from the free own-side vertex s; flips the
  // path into the matching and returns true when it finds one, else
  // changes nothing.
  bool Augment(const BipartiteGraph::Adjacency& a, int s,
               std::vector<int>& own_match, std::vector<int>& other_match);
  // First slot of x, in edge order, to a free other-side vertex, or -1.
  int FreeSlot(const BipartiteGraph::Adjacency& a, int x,
               const std::vector<int>& other_match);

  // Greedy candidates: (inverted weight << 32 | first edge), ascending.
  std::vector<std::uint64_t> order_;
  std::vector<int> left_match_;    // M1, then the merged matching.
  std::vector<int> right_match_;   // M1's cover, as the greedy left it.
  std::vector<int> left_match2_;   // M2.
  std::vector<int> right_match2_;
  std::vector<int> seen_;  // Other-side visit stamps of the current greedy.
  int stamp_ = 0;
  std::vector<int> free_scan_;  // Per own-side vertex: FreeSlot's cursor.
  std::vector<Frame> stack_;
};

}  // namespace flowsched

#endif  // FLOWSCHED_GRAPH_VERTEX_WEIGHT_MATCHING_H_
