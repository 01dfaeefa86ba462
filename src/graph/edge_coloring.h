// Constructive bipartite edge coloring (König's theorem).
//
// A bipartite multigraph with maximum degree D decomposes into exactly D
// matchings. This is the algorithmic heart of the paper's Birkhoff–von
// Neumann step (Theorem 1): the combined interval graph is decomposed into
// matchings that are then packed into (1+c)-augmented rounds.
//
// The coloring recolors one alternating path per edge (König's proof),
// O(V * E), and always uses exactly max(MaxDegree, 1) colors. The
// assignment of edges to colors is part of Theorem 1's schedules, which
// the golden tests pin.
#ifndef FLOWSCHED_GRAPH_EDGE_COLORING_H_
#define FLOWSCHED_GRAPH_EDGE_COLORING_H_

#include <vector>

#include "graph/bipartite_graph.h"

namespace flowsched {

struct EdgeColoring {
  int num_colors = 0;
  std::vector<int> color_of_edge;  // In [0, num_colors).

  // Edge indices per color class (each class is a matching). `validate`
  // range-checks every stored color (FS_CHECK) before bucketing — the safe
  // default; hot loops that already trust their coloring (benchmarks,
  // ArtSchedulerOptions::validate == false) pass false to skip the audit.
  std::vector<std::vector<int>> ColorClasses(bool validate = true) const;
};

// Colors all edges of `g` with MaxDegree() colors.
EdgeColoring ColorBipartiteEdges(const BipartiteGraph& g);

// Validation helper for tests: every color class is a matching and every
// edge has a color in range.
bool IsValidEdgeColoring(const BipartiteGraph& g, const EdgeColoring& ec);

}  // namespace flowsched

#endif  // FLOWSCHED_GRAPH_EDGE_COLORING_H_
