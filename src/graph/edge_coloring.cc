#include "graph/edge_coloring.h"

#include <algorithm>

#include "util/check.h"

namespace flowsched {

// Alternating-path recoloring (König), O(V * E).
EdgeColoring ColorBipartiteEdges(const BipartiteGraph& g) {
  const int num_colors = std::max(g.MaxDegree(), 1);
  EdgeColoring ec;
  ec.num_colors = num_colors;
  ec.color_of_edge.assign(g.num_edges(), -1);
  // slot(side, vertex, c) = edge currently colored c at that vertex, or -1.
  std::vector<int> slot_left(static_cast<std::size_t>(g.num_left()) * num_colors, -1);
  std::vector<int> slot_right(static_cast<std::size_t>(g.num_right()) * num_colors, -1);
  auto left_slot = [&](int u, int c) -> int& {
    return slot_left[static_cast<std::size_t>(u) * num_colors + c];
  };
  auto right_slot = [&](int v, int c) -> int& {
    return slot_right[static_cast<std::size_t>(v) * num_colors + c];
  };
  auto first_free = [&](std::vector<int>& slots, int vertex) {
    for (int c = 0; c < num_colors; ++c) {
      if (slots[static_cast<std::size_t>(vertex) * num_colors + c] == -1) return c;
    }
    FS_CHECK_MSG(false, "vertex " << vertex << " has no free color");
    return -1;
  };

  std::vector<int> path;  // Reused buffer of edge ids on the alternating path.
  for (int e = 0; e < g.num_edges(); ++e) {
    const int u = g.edge(e).u;
    const int v = g.edge(e).v;
    const int a = first_free(slot_left, u);
    const int b = first_free(slot_right, v);
    if (a != b) {
      // Color a is free at u but used at v. Flip the maximal a/b alternating
      // path starting at v; it never reaches u (every left vertex on the
      // path is entered through an a-colored edge, and u has none), so after
      // the flip color a is free at both endpoints.
      path.clear();
      int vertex = v;
      bool on_right = true;
      int want = a;
      while (true) {
        const int next = on_right ? right_slot(vertex, want)
                                  : left_slot(vertex, want);
        if (next == -1) break;
        path.push_back(next);
        vertex = on_right ? g.edge(next).u : g.edge(next).v;
        on_right = !on_right;
        want = (want == a) ? b : a;
      }
      for (int pe : path) {
        const int c = ec.color_of_edge[pe];
        left_slot(g.edge(pe).u, c) = -1;
        right_slot(g.edge(pe).v, c) = -1;
      }
      for (int pe : path) {
        const int c = (ec.color_of_edge[pe] == a) ? b : a;
        ec.color_of_edge[pe] = c;
        left_slot(g.edge(pe).u, c) = pe;
        right_slot(g.edge(pe).v, c) = pe;
      }
    }
    FS_CHECK_EQ(left_slot(u, a), -1);
    FS_CHECK_EQ(right_slot(v, a), -1);
    ec.color_of_edge[e] = a;
    left_slot(u, a) = e;
    right_slot(v, a) = e;
  }
  return ec;
}

std::vector<std::vector<int>> EdgeColoring::ColorClasses(bool validate) const {
  std::vector<std::vector<int>> classes(num_colors);
  for (int e = 0; e < static_cast<int>(color_of_edge.size()); ++e) {
    if (validate) {
      FS_CHECK(color_of_edge[e] >= 0 && color_of_edge[e] < num_colors);
    }
    classes[color_of_edge[e]].push_back(e);
  }
  return classes;
}

bool IsValidEdgeColoring(const BipartiteGraph& g, const EdgeColoring& ec) {
  if (static_cast<int>(ec.color_of_edge.size()) != g.num_edges()) return false;
  for (int c : ec.color_of_edge) {
    if (c < 0 || c >= ec.num_colors) return false;
  }
  for (const auto& cls : ec.ColorClasses(/*validate=*/true)) {
    if (!IsMatching(g, cls)) return false;
  }
  return true;
}

}  // namespace flowsched
