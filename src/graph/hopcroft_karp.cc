#include "graph/hopcroft_karp.h"

#include <limits>

namespace flowsched {
namespace {

constexpr int kInf = std::numeric_limits<int>::max();

}  // namespace

void HopcroftKarpSolver::Solve(const BipartiteGraph& g, std::vector<int>* out) {
  match_left_.assign(g.num_left(), -1);
  match_right_.assign(g.num_right(), -1);
  dist_.assign(g.num_left(), kInf);
  while (Bfs(g)) {
    for (int u = 0; u < g.num_left(); ++u) {
      if (match_left_[u] == -1) Dfs(g, u);
    }
  }
  out->clear();
  for (int u = 0; u < g.num_left(); ++u) {
    if (match_left_[u] != -1) out->push_back(match_left_[u]);
  }
}

// Layers free left vertices; returns true if an augmenting path exists.
bool HopcroftKarpSolver::Bfs(const BipartiteGraph& g) {
  queue_.clear();
  for (int u = 0; u < g.num_left(); ++u) {
    if (match_left_[u] == -1) {
      dist_[u] = 0;
      queue_.push_back(u);
    } else {
      dist_[u] = kInf;
    }
  }
  bool found = false;
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const int u = queue_[head];
    for (int e : g.left_adj(u)) {
      const int v = g.edge(e).v;
      const int me = match_right_[v];
      if (me == -1) {
        found = true;
      } else {
        const int w = g.edge(me).u;
        if (dist_[w] == kInf) {
          dist_[w] = dist_[u] + 1;
          queue_.push_back(w);
        }
      }
    }
  }
  return found;
}

bool HopcroftKarpSolver::Dfs(const BipartiteGraph& g, int u) {
  for (int e : g.left_adj(u)) {
    const int v = g.edge(e).v;
    const int me = match_right_[v];
    if (me == -1 ||
        (dist_[g.edge(me).u] == dist_[u] + 1 && Dfs(g, g.edge(me).u))) {
      match_left_[u] = e;
      match_right_[v] = e;
      return true;
    }
  }
  dist_[u] = kInf;
  return false;
}

std::vector<int> MaxCardinalityMatching(const BipartiteGraph& g) {
  HopcroftKarpSolver solver;
  std::vector<int> edges;
  solver.Solve(g, &edges);
  return edges;
}

}  // namespace flowsched
