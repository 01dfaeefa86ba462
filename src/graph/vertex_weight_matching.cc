#include "graph/vertex_weight_matching.h"

#include <algorithm>

#include "util/check.h"

namespace flowsched {

// First slot of x (in edge order) whose other endpoint is free, or -1. A
// matched vertex stays matched for the rest of the greedy (augmenting
// paths only grow the matched set), so the scan resumes where x's last one
// stopped: all look-aheads of one greedy cost O(E) together.
int VertexWeightMatcher::FreeSlot(const BipartiteGraph::Adjacency& a, int x,
                                  const std::vector<int>& other_match) {
  int& i = free_scan_[x];
  for (const int end = a.start[x + 1]; i < end; ++i) {
    if (other_match[a.other[i]] == -1) return i;
  }
  return -1;
}

bool VertexWeightMatcher::Augment(const BipartiteGraph::Adjacency& a, int s,
                                  std::vector<int>& own_match,
                                  std::vector<int>& other_match) {
  // Flips the path: the top vertex x takes slot `last`, every frame takes
  // the slot it descended through. All writes go to distinct entries.
  const auto flip = [&](int x, int last) {
    own_match[x] = a.edge[last];
    other_match[a.other[last]] = x;
    for (const Frame& f : stack_) {
      own_match[f.vertex] = a.edge[f.via];
      other_match[a.other[f.via]] = f.vertex;
    }
    // The matching changed, so earlier dead ends may now lead somewhere.
    ++stamp_;
    return true;
  };
  stack_.clear();
  // Look for a free neighbour before descending, at s and at every vertex
  // the search reaches.
  if (const int slot = FreeSlot(a, s, other_match); slot != -1) {
    return flip(s, slot);
  }
  stack_.push_back({a.start[s], a.start[s + 1], s, -1});
  while (!stack_.empty()) {
    Frame& f = stack_.back();
    if (f.next == f.end) {
      stack_.pop_back();
      continue;
    }
    const int y = a.other[f.next];
    // Every y seen is matched (the look-ahead found no free one), and a
    // failed search leaves the matching unchanged, so a y seen since the
    // last augmentation is a dead end.
    if (seen_[y] == stamp_) {
      ++f.next;
      continue;
    }
    seen_[y] = stamp_;
    f.via = f.next++;
    const int x = other_match[y];
    if (const int slot = FreeSlot(a, x, other_match); slot != -1) {
      return flip(x, slot);
    }
    stack_.push_back({a.start[x], a.start[x + 1], x, -1});
  }
  return false;
}

template <bool kLeft>
void VertexWeightMatcher::Greedy(const BipartiteGraph& g,
                                 std::span<const int> weight,
                                 std::vector<int>& own_match,
                                 std::vector<int>& other_match) {
  const BipartiteGraph::Adjacency& a = kLeft ? g.left() : g.right();
  const BipartiteGraph::Adjacency& far = kLeft ? g.right() : g.left();
  const int n_own = kLeft ? g.num_left() : g.num_right();
  const int n_other = kLeft ? g.num_right() : g.num_left();
  FS_CHECK_EQ(static_cast<int>(weight.size()), n_own);
  // Falling weight, ties to the oldest incident edge (a vertex's first
  // slot; no two vertices share it), packed into one ascending key.
  order_.clear();
  for (int x = 0; x < n_own; ++x) {
    FS_CHECK_GE(weight[x], 0);
    if (weight[x] > 0 && a.start[x] != a.start[x + 1]) {
      order_.push_back(std::uint64_t{~static_cast<std::uint32_t>(weight[x])}
                           << 32 |
                       static_cast<std::uint32_t>(a.edge[a.start[x]]));
    }
  }
  std::sort(order_.begin(), order_.end());
  int unmatched = 0;  // Other-side vertices with an edge and no match.
  for (int y = 0; y < n_other; ++y) {
    if (far.start[y] != far.start[y + 1]) ++unmatched;
  }
  own_match.assign(n_own, -1);
  other_match.assign(n_other, -1);
  seen_.assign(n_other, 0);
  stamp_ = 1;
  free_scan_.assign(a.start.begin(), a.start.end() - 1);
  for (const std::uint64_t key : order_) {
    if (unmatched == 0) break;
    const BipartiteGraph::Edge& first =
        g.edge(static_cast<int>(key & 0xffffffffu));
    if (Augment(a, kLeft ? first.u : first.v, own_match, other_match)) {
      --unmatched;
    }
  }
}

void VertexWeightMatcher::Solve(const BipartiteGraph& g,
                                std::span<const int> left_weight,
                                std::span<const int> right_weight,
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
