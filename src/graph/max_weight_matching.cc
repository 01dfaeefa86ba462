#include "graph/max_weight_matching.h"

#include <algorithm>
#include <cstdint>

#include "util/check.h"

namespace flowsched {
namespace {

// vector::assign that grows capacity by half again when it has to grow: a
// backlog ramping up round by round then reallocates the 100+ KB matrices
// a few times instead of nearly every round (each reallocation also
// fragments the heap).
template <typename T>
void AssignGrowing(std::vector<T>& v, std::size_t n, T value) {
  if (v.capacity() < n) v.reserve(n + n / 2);
  v.assign(n, value);
}

// True when `w` (already checked >= 0) is an integer the int32 lane takes.
bool FitsIntLane(double w) {
  return w <= MaxWeightMatcher::kIntLaneMaxWeight &&
         w == static_cast<double>(static_cast<std::int32_t>(w));
}

}  // namespace

bool MaxWeightMatcher::PrepareProblem(const BipartiteGraph& g,
                                      std::span<const double> weight) {
  FS_CHECK_EQ(static_cast<int>(weight.size()), g.num_edges());
  if (g.num_edges() == 0) return false;

  // Only left/right vertices that actually carry edges participate; compact
  // them so the dense matrix stays as small as the backlog, not the switch.
  left_index_.assign(g.num_left(), -1);
  right_index_.assign(g.num_right(), -1);
  left_ids_.clear();
  right_ids_.clear();
  int_lane_ = true;
  for (int e = 0; e < g.num_edges(); ++e) {
    FS_CHECK_GE(weight[e], 0.0);
    int_lane_ = int_lane_ && FitsIntLane(weight[e]);
    const BipartiteGraph::Edge& edge = g.edge(e);
    if (left_index_[edge.u] == -1) {
      left_index_[edge.u] = static_cast<int>(left_ids_.size());
      left_ids_.push_back(edge.u);
    }
    if (right_index_[edge.v] == -1) {
      right_index_[edge.v] = static_cast<int>(right_ids_.size());
      right_ids_.push_back(edge.v);
    }
  }
  const int nl = static_cast<int>(left_ids_.size());
  const int nr = static_cast<int>(right_ids_.size());
  transpose_ = nl > nr;
  rows_ = transpose_ ? nr : nl;
  cols_ = transpose_ ? nl : nr;
  BuildCost(g, weight);
  return true;
}

void MaxWeightMatcher::BuildCost(const BipartiteGraph& g,
                                 std::span<const double> weight) {
  if (int_lane_) {
    FillCost(g, weight, ilane_.cost);
  } else {
    FillCost(g, weight, dlane_.cost);
  }
}

template <typename T>
void MaxWeightMatcher::FillCost(const BipartiteGraph& g,
                                std::span<const double> weight,
                                std::vector<T>& cost) {
  // Keep, per (u, v) cell, the best (max-weight) edge; parallel edges can
  // never both be matched. Cells without an edge cost 0 == "leave unmatched".
  const std::size_t cells = static_cast<std::size_t>(rows_) * cols_;
  AssignGrowing(cost, cells, T{0});
  AssignGrowing(best_edge_, cells, -1);
  for (int e = 0; e < g.num_edges(); ++e) {
    int r = left_index_[g.edge(e).u];
    int c = right_index_[g.edge(e).v];
    if (transpose_) std::swap(r, c);
    const std::size_t rc = static_cast<std::size_t>(r) * cols_ + c;
    if (best_edge_[rc] == -1 || weight[e] > -cost[rc]) {
      cost[rc] = static_cast<T>(-weight[e]);
      best_edge_[rc] = e;
    }
  }
}

void MaxWeightMatcher::RunHungarian() {
  p_.assign(cols_ + 1, 0);
  if (int_lane_) {
    RunLane(ilane_);
  } else {
    RunLane(dlane_);
  }
}

template <typename T>
void MaxWeightMatcher::RunLane(LaneState<T>& lane) {
  // Hungarian algorithm (potentials + shortest augmenting path), minimizing
  // cost over the dense rows x cols matrix with rows <= cols. Classic
  // cp-algorithms formulation restructured for streaming over flat reused
  // arrays; the restructure is value-preserving (see hungarian_scan.cc and
  // the masked-potential scheme), so the matching comes back identical to
  // the historical implementation edge for edge.
  using L = hungarian::Lane<T>;
  const hungarian::ScanRowFn<T> scan_row = hungarian::BestScanRow<T>();
  const int n = rows_;
  const int m = cols_;
  lane.u.assign(n + 1, 0);
  lane.v.assign(m + 1, 0);
  lane.vv.assign(m + 1, 0);
  lane.way.assign(m + 1, 0);
  lane.minv.resize(m + 1);
  for (int i = 1; i <= n; ++i) {
    p_[0] = i;
    int j0 = 0;
    std::fill(lane.minv.begin() + 1, lane.minv.end(), L::kInf);
    used_cols_.clear();
    T delta = 0;  // Folded into the next row scan.
    do {
      // Real columns only: the virtual column 0 has no potential to keep
      // (its v would drift by the sum of all deltas, past int32 range).
      if (j0 >= 1) {
        used_cols_.push_back(j0);
        lane.vv[j0] = L::kUsed;
        lane.minv[j0] = L::kInf;
      }
      const int i0 = p_[j0];
      const T* arow = lane.cost.data() + static_cast<std::size_t>(i0 - 1) * m;
      const hungarian::ScanResult<T> scan =
          scan_row(arow, lane.u[i0], lane.vv.data() + 1, lane.minv.data() + 1,
                   lane.way.data() + 1, m, delta, j0);
      const int j1 = scan.j1 + 1;  // Back to 1-based columns.
      // The minimum is always an open column; a violation (non-finite
      // weights, or a broken lane sentinel) would otherwise loop forever.
      FS_CHECK(scan.j1 >= 0 && scan.best < L::kInf &&
               lane.vv[j1] != L::kUsed);
      if (scan.best != 0) {  // +/- 0 updates cannot change any comparison.
        lane.u[i] += scan.best;  // The root row, under the virtual column.
        for (int j : used_cols_) {
          lane.u[p_[j]] += scan.best;
          lane.v[j] -= scan.best;
        }
      }
      delta = scan.best;
      j0 = j1;
    } while (p_[j0] != 0);
    for (int j : used_cols_) lane.vv[j] = lane.v[j];  // Re-open them.
    do {
      const int j1 = static_cast<int>(lane.way[j0]);
      p_[j0] = p_[j1];
      j0 = j1;
    } while (j0 != 0);
  }
}

void MaxWeightMatcher::EmitMatching(std::span<const double> weight,
                                    std::vector<int>* out) {
  const int n = rows_;
  const int m = cols_;
  assignment_.assign(n, -1);
  for (int j = 1; j <= m; ++j) {
    if (p_[j] != 0) assignment_[p_[j] - 1] = j - 1;
  }
  for (int r = 0; r < n; ++r) {
    const int c = assignment_[r];
    if (c < 0) continue;
    // Zero-cost cells are "unmatched" pads (no edge, or a zero-weight
    // one); a cell costs minus its best edge's weight, so keep only real
    // positive picks.
    const int e = best_edge_[static_cast<std::size_t>(r) * m + c];
    if (e != -1 && weight[e] > 0.0) out->push_back(e);
  }
}

void MaxWeightMatcher::Solve(const BipartiteGraph& g,
                             std::span<const double> weight,
                             std::vector<int>* out) {
  out->clear();
  if (!PrepareProblem(g, weight)) return;
  RunHungarian();
  EmitMatching(weight, out);
}

std::vector<int> MaxWeightMatching(const BipartiteGraph& g,
                                   std::span<const double> weight) {
  MaxWeightMatcher matcher;
  std::vector<int> matching;
  matcher.Solve(g, weight, &matching);
  return matching;
}

}  // namespace flowsched
