#include "graph/bipartite_graph.h"

#include <algorithm>

#include "util/check.h"

namespace flowsched {
namespace {

// Counting sort of `edges` by their `own` endpoint (n vertices) into `a`.
// Degrees are counted two places up, so after the prefix sum start[x+1] is
// x's first slot; placing each edge then advances start[x+1] to x's end,
// which is x+1's start. Edges are placed in edge order, so the sort is
// stable.
void IndexSide(std::span<const BipartiteGraph::Edge> edges, int n,
               int BipartiteGraph::Edge::*own, int BipartiteGraph::Edge::*far,
               BipartiteGraph::Adjacency& a) {
  FS_CHECK_GE(n, 0);
  a.start.assign(n + 2, 0);
  for (const BipartiteGraph::Edge& e : edges) {
    const int x = e.*own;
    FS_CHECK(x >= 0 && x < n);
    ++a.start[x + 2];
  }
  for (int x = 2; x < n + 2; ++x) a.start[x] += a.start[x - 1];
  a.edge.resize(edges.size());
  a.other.resize(edges.size());
  for (int e = 0; e < static_cast<int>(edges.size()); ++e) {
    const int slot = a.start[edges[e].*own + 1]++;
    a.edge[slot] = e;
    a.other[slot] = edges[e].*far;
  }
  a.start.resize(n + 1);
}

}  // namespace

void BipartiteGraph::Index(int num_left, int num_right) {
  num_left_ = num_left;
  num_right_ = num_right;
  IndexSide(edges_, num_left, &Edge::u, &Edge::v, left_);
  IndexSide(edges_, num_right, &Edge::v, &Edge::u, right_);
}

int BipartiteGraph::MaxDegree() const {
  int d = 0;
  for (int u = 0; u < num_left_; ++u) d = std::max(d, LeftDegree(u));
  for (int v = 0; v < num_right_; ++v) d = std::max(d, RightDegree(v));
  return d;
}

bool IsMatching(const BipartiteGraph& g, std::span<const int> edge_ids) {
  std::vector<char> left_used(g.num_left(), 0);
  std::vector<char> right_used(g.num_right(), 0);
  std::vector<char> edge_used(g.num_edges(), 0);
  for (int e : edge_ids) {
    if (e < 0 || e >= g.num_edges() || edge_used[e]) return false;
    edge_used[e] = 1;
    const auto& edge = g.edge(e);
    if (left_used[edge.u] || right_used[edge.v]) return false;
    left_used[edge.u] = 1;
    right_used[edge.v] = 1;
  }
  return true;
}

double MatchingWeight(std::span<const int> edge_ids,
                      std::span<const double> weight) {
  double total = 0.0;
  for (int e : edge_ids) total += weight[e];
  return total;
}

}  // namespace flowsched
