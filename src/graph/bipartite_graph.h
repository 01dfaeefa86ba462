// Bipartite multigraph and matching helpers.
//
// Left vertices model input ports (or their replicas), right vertices model
// output ports. Parallel edges are allowed — interval graphs in Theorem 1's
// Birkhoff–von Neumann step are genuine multigraphs.
//
// The graph is flat (CSR): each side keeps `start` offsets and, per
// adjacency slot, the incident edge id and the far endpoint. Vertex x's
// slots are start[x] .. start[x+1], in edge order, so a scan that takes the
// first fitting slot takes the oldest edge (on the backlog graph, the oldest
// pending flow). Fill() builds both sides with one counting sort and keeps
// every buffer, so refilling a graph no larger than any before it touches
// no heap.
#ifndef FLOWSCHED_GRAPH_BIPARTITE_GRAPH_H_
#define FLOWSCHED_GRAPH_BIPARTITE_GRAPH_H_

#include <span>
#include <vector>

namespace flowsched {

class BipartiteGraph {
 public:
  struct Edge {
    int u = 0;  // Left endpoint.
    int v = 0;  // Right endpoint.
  };

  // One side's adjacency: vertex x's incident edges are edge[s] for s in
  // [start[x], start[x+1]), in edge order, and other[s] is the far
  // endpoint of edge[s].
  struct Adjacency {
    std::vector<int> start;
    std::vector<int> edge;
    std::vector<int> other;
  };

  BipartiteGraph(int num_left, int num_right,
                 const std::vector<Edge>& edges = {}) {
    Fill(num_left, num_right, static_cast<int>(edges.size()),
         [&edges](int e) { return edges[e]; });
  }

  // Replaces the graph by one with `num_edges` edges, edge e being
  // edge_at(e) (called once per e, in ascending order). FS_CHECK-aborts on
  // an endpoint out of range.
  template <typename EdgeAt>
  void Fill(int num_left, int num_right, int num_edges, EdgeAt&& edge_at) {
    edges_.resize(num_edges);
    for (int e = 0; e < num_edges; ++e) edges_[e] = edge_at(e);
    Index(num_left, num_right);
  }

  int num_left() const { return num_left_; }
  int num_right() const { return num_right_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  const Edge& edge(int e) const { return edges_[e]; }
  const std::vector<Edge>& edges() const { return edges_; }

  const Adjacency& left() const { return left_; }
  const Adjacency& right() const { return right_; }

  // Incident edge indices, in edge order.
  std::span<const int> left_adj(int u) const { return Slots(left_, u); }
  std::span<const int> right_adj(int v) const { return Slots(right_, v); }

  int LeftDegree(int u) const { return left_.start[u + 1] - left_.start[u]; }
  int RightDegree(int v) const {
    return right_.start[v + 1] - right_.start[v];
  }

  // Maximum degree over all vertices (0 for edgeless graphs).
  int MaxDegree() const;

 private:
  static std::span<const int> Slots(const Adjacency& a, int x) {
    return std::span<const int>(a.edge).subspan(
        a.start[x], a.start[x + 1] - a.start[x]);
  }
  // Counting-sorts edges_ into both sides' adjacency.
  void Index(int num_left, int num_right);

  int num_left_ = 0;
  int num_right_ = 0;
  std::vector<Edge> edges_;
  Adjacency left_;
  Adjacency right_;
};

// True iff `edge_ids` are distinct edges of `g` sharing no endpoint.
bool IsMatching(const BipartiteGraph& g, std::span<const int> edge_ids);

// Sum of weights over the edge set.
double MatchingWeight(std::span<const int> edge_ids,
                      std::span<const double> weight);

}  // namespace flowsched

#endif  // FLOWSCHED_GRAPH_BIPARTITE_GRAPH_H_
