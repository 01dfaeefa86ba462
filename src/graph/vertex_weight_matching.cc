#include "graph/vertex_weight_matching.h"

#include <algorithm>

#include "util/check.h"

namespace flowsched {
namespace {

// Side-generic views of the graph: the greedy runs once with the left side
// as its own side and once with the right.
template <bool kLeft>
const std::vector<int>& Adj(const BipartiteGraph& g, int x) {
  return kLeft ? g.left_adj(x) : g.right_adj(x);
}

template <bool kLeft>
int Own(const BipartiteGraph::Edge& e) {
  return kLeft ? e.u : e.v;
}

template <bool kLeft>
int Other(const BipartiteGraph::Edge& e) {
  return kLeft ? e.v : e.u;
}

}  // namespace

// First edge of x (in edge order) whose other endpoint is free, or -1. A
// matched vertex stays matched for the rest of the greedy (augmenting
// paths only grow the matched set), so the scan resumes where x's last one
// stopped: all look-aheads of one greedy cost O(E) together.
template <bool kLeft>
int VertexWeightMatcher::FreeEdge(const BipartiteGraph& g, int x,
                                  const std::vector<int>& other_match) {
  const std::vector<int>& adj = Adj<kLeft>(g, x);
  int& i = free_scan_[x];
  for (; i < static_cast<int>(adj.size()); ++i) {
    if (other_match[Other<kLeft>(g.edge(adj[i]))] == -1) return adj[i];
  }
  return -1;
}

template <bool kLeft>
void VertexWeightMatcher::Augment(const BipartiteGraph& g, int s,
                                  std::vector<int>& own_match,
                                  std::vector<int>& other_match) {
  // Flips the path: the top vertex x takes `last`, every frame takes the
  // edge it descended through. All writes go to distinct slots.
  const auto flip = [&](int x, int last) {
    own_match[x] = last;
    other_match[Other<kLeft>(g.edge(last))] = last;
    for (const Frame& f : stack_) {
      own_match[f.vertex] = f.via;
      other_match[Other<kLeft>(g.edge(f.via))] = f.via;
    }
    // The matching changed, so earlier dead ends may now lead somewhere.
    ++stamp_;
  };
  stack_.clear();
  // Look for a free neighbour before descending, at s and at every vertex
  // the search reaches.
  if (const int e = FreeEdge<kLeft>(g, s, other_match); e != -1) {
    flip(s, e);
    return;
  }
  stack_.push_back({s, 0, -1});
  while (!stack_.empty()) {
    Frame& f = stack_.back();
    const std::vector<int>& adj = Adj<kLeft>(g, f.vertex);
    if (f.next == static_cast<int>(adj.size())) {
      stack_.pop_back();
      continue;
    }
    const int e = adj[f.next++];
    const int y = Other<kLeft>(g.edge(e));
    // Every y seen is matched (the look-ahead found no free one), and a
    // failed search leaves the matching unchanged, so a y seen since the
    // last augmentation is a dead end.
    if (seen_[y] == stamp_) continue;
    seen_[y] = stamp_;
    f.via = e;
    const int x = Own<kLeft>(g.edge(other_match[y]));
    if (const int free = FreeEdge<kLeft>(g, x, other_match); free != -1) {
      flip(x, free);
      return;
    }
    stack_.push_back({x, 0, -1});
  }
}

template <bool kLeft>
void VertexWeightMatcher::Greedy(const BipartiteGraph& g,
                                 std::span<const double> weight,
                                 std::vector<int>& own_match,
                                 std::vector<int>& other_match) {
  const int n_own = kLeft ? g.num_left() : g.num_right();
  const int n_other = kLeft ? g.num_right() : g.num_left();
  FS_CHECK_EQ(static_cast<int>(weight.size()), n_own);
  order_.clear();
  for (int x = 0; x < n_own; ++x) {
    FS_CHECK_GE(weight[x], 0.0);
    const std::vector<int>& adj = Adj<kLeft>(g, x);
    if (weight[x] > 0.0 && !adj.empty()) {
      order_.push_back({weight[x], adj.front(), x});
    }
  }
  // Falling weight; ties to the oldest incident edge (a vertex's adjacency
  // is in edge order, so that is its first entry; no two vertices share it).
  std::sort(order_.begin(), order_.end(), [](const Visit& a, const Visit& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.first_edge < b.first_edge;
  });
  own_match.assign(n_own, -1);
  other_match.assign(n_other, -1);
  seen_.assign(n_other, 0);
  stamp_ = 1;
  free_scan_.assign(n_own, 0);
  for (const Visit& x : order_) {
    Augment<kLeft>(g, x.vertex, own_match, other_match);
  }
}

void VertexWeightMatcher::Solve(const BipartiteGraph& g,
                                std::span<const double> left_weight,
                                std::span<const double> right_weight,
                                std::vector<int>* out) {
  out->clear();
  Greedy<true>(g, left_weight, left_match_, right_match_);
  Greedy<false>(g, right_weight, right_match2_, left_match2_);
  // Merge: each right vertex in B that M1 leaves free starts an alternating
  // path of M1 ∪ M2. Taking M2's edges along it keeps every left vertex on
  // it covered, covers its B vertices, and uncovers at most its last right
  // vertex, which M2 leaves free (so it is not in B). A path has at most
  // one such start, so each is walked once, and right_match_ (M1's cover)
  // needs no update.
  for (int r = 0; r < g.num_right(); ++r) {
    if (right_match2_[r] == -1 || right_match_[r] != -1) continue;
    for (int e = right_match2_[r]; e != -1;) {
      const int u = g.edge(e).u;
      const int old = left_match_[u];
      left_match_[u] = e;
      if (old == -1) break;
      // u drops its M1 edge; that edge's right end continues the path along
      // its M2 edge, if any.
      e = right_match2_[g.edge(old).v];
    }
  }
  for (int e : left_match_) {
    if (e != -1) out->push_back(e);
  }
}

}  // namespace flowsched
