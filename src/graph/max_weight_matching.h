// Maximum-weight bipartite matching (not necessarily perfect).
//
// Used by the MinRTime, MaxWeight and Hybrid online heuristics (paper
// §5.2.1), which each round extract a maximum-weight matching from the
// backlog graph. Weights must be non-negative; leaving a vertex unmatched is
// always allowed (equivalently, the matching maximizes total weight, not
// cardinality).
//
// The solver class keeps the dense cost matrix and all Hungarian scratch
// alive across calls: per-round calls in the simulator hot loop touch the
// heap only while the backlog is still growing past its previous peak. The
// result is bit-identical to the historical one-shot implementation — the
// inner loops were restructured (flat matrix, inert-column sentinels) but
// every floating-point operation sequence that feeds a comparison is
// preserved, so the same matching comes back edge for edge.
//
// Two value lanes share one Hungarian loop. When every edge weight is an
// integer in [0, kIntLaneMaxWeight] (MaxWeight's queue lengths, MinRTime's
// ages), the solve runs in int32: the double solve of such a problem only
// ever adds and subtracts integers far below 2^53, so it is exact integer
// arithmetic and the int32 run makes the same comparisons and returns the
// same matching, at twice the SIMD width. Any other weights (coflow
// 1+1/(1+rem), hybrid age+0.5*pressure) run in double. The choice depends
// on the weights alone.
//
// The solve is decomposed into resumable phases (PrepareProblem / InitDuals
// / RunRows / EmitMatching) so the warm-start layer in
// graph/incremental_matching.h can snapshot the per-row Hungarian state and
// resume a solve at the first row a backlog delta invalidated. Solve() is
// exactly InitDuals + RunRows(1) + EmitMatching, so every path through the
// incremental layer computes the same operation sequence as a from-scratch
// call.
#ifndef FLOWSCHED_GRAPH_MAX_WEIGHT_MATCHING_H_
#define FLOWSCHED_GRAPH_MAX_WEIGHT_MATCHING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/hungarian_scan.h"

namespace flowsched {

// Snapshots of the Hungarian (u, v, p) state after each processed row,
// recorded by MaxWeightMatcher::RunRows and replayed by the warm-start
// layer. State after row i (1-based) lives in slot i-1. The state after row
// i is a pure function of matrix rows 1..i, so restoring slot k and running
// rows k+1..n replays the exact from-scratch operation sequence — this is
// what makes warm-started solves provably bit-identical. Both value lanes
// store here; int32 potentials convert to double and back exactly.
struct HungarianCheckpoints {
  int n = 0;         // Rows of the problem the snapshots belong to.
  int m = 0;         // Columns.
  int recorded = 0;  // Slots 0..recorded-1 are valid.
  // Flat per-slot storage: u is (n+1) doubles, v is (m+1) doubles, p is
  // (m+1) ints per slot.
  std::vector<double> u;
  std::vector<double> v;
  std::vector<int> p;

  // Invalidates every slot and sizes storage for an n x m problem.
  void Reset(int rows, int cols) {
    n = rows;
    m = cols;
    recorded = 0;
    u.resize(static_cast<std::size_t>(rows) * (rows + 1));
    v.resize(static_cast<std::size_t>(rows) * (cols + 1));
    p.resize(static_cast<std::size_t>(rows) * (cols + 1));
  }
};

class MaxWeightMatcher {
 public:
  // Largest weight the int32 lane accepts; see hungarian::Lane<int32_t> for
  // why this bound keeps every intermediate value exact and in range.
  static constexpr double kIntLaneMaxWeight = 1 << 26;

  // Overwrites *out with edge indices of a maximum-weight matching of `g`
  // under the given per-edge weights (weight.size() == g.num_edges(), all
  // weights >= 0). Runs the O(n^3) Hungarian algorithm on a dense matrix
  // over the vertices that actually carry edges.
  void Solve(const BipartiteGraph& g, std::span<const double> weight,
             std::vector<int>* out);

 private:
  // The warm-start layer drives the phase entry points directly; the lane
  // test reads the lane choice and forces the double lane on integral
  // problems to compare the two.
  friend class IncrementalMatcher;
  friend struct MaxWeightMatcherTestPeer;

  // Hungarian state of one value lane (1-based over cols, index 0 is the
  // virtual column).
  template <typename T>
  struct LaneState {
    std::vector<T> cost;  // Dense rows_ x cols_ matrix, row-major.
    std::vector<T> u;
    std::vector<T> v;
    std::vector<T> minv;
    std::vector<T> vv;  // == v for open columns, Lane<T>::kUsed once used.
    std::vector<typename hungarian::Lane<T>::Index> way;
  };

  // Phase 1: vertex compaction + dense matrix build + lane choice. Returns
  // false when the graph has no edges (nothing to solve; *out must just stay
  // empty). Does not touch the Hungarian state, so a caller that detects an
  // unchanged matrix afterwards can still EmitMatching() from the previous
  // solve.
  bool PrepareProblem(const BipartiteGraph& g, std::span<const double> weight);
  // Phase 2: resets duals and matching for a from-scratch run.
  void InitDuals();
  // Phase 3: inserts rows first_row..rows_ (1-based). When `record` is
  // non-null, snapshots the (u, v, p) state after every processed row into
  // its slots (record->recorded advances to rows_); slots below
  // first_row-1 are left untouched, so a resumed run keeps the prefix
  // recorded by the earlier solve.
  void RunRows(int first_row, HungarianCheckpoints* record);
  // Restores the state snapshot taken after row `row` (1-based); the next
  // RunRows(row + 1, ...) continues exactly where that solve was.
  void RestoreCheckpoint(const HungarianCheckpoints& from, int row);
  // Phase 4: extracts the matching as edge indices into *out (appends; the
  // caller clears).
  void EmitMatching(std::span<const double> weight, std::vector<int>* out);

  // Fills the current lane's cost matrix and best_edge_ (PrepareProblem's
  // last step, after compaction and the lane choice).
  void BuildCost(const BipartiteGraph& g, std::span<const double> weight);
  template <typename T>
  void FillCost(const BipartiteGraph& g, std::span<const double> weight,
                std::vector<T>& cost);
  template <typename T>
  void InitLane(LaneState<T>& lane);
  template <typename T>
  void RestoreLane(const HungarianCheckpoints& from, int row,
                   LaneState<T>& lane);
  template <typename T>
  void RunLaneRows(LaneState<T>& lane, int first_row,
                   HungarianCheckpoints* record);

  // The current lane's matrix entry (0-based) and dual potentials (1-based),
  // for the warm-start layer's dual audits.
  double CostAt(int r, int c) const {
    const std::size_t rc = static_cast<std::size_t>(r) * cols_ + c;
    return int_lane_ ? ilane_.cost[rc] : dlane_.cost[rc];
  }
  double PotentialU(int i) const {
    return int_lane_ ? ilane_.u[i] : dlane_.u[i];
  }
  double PotentialV(int j) const {
    return int_lane_ ? ilane_.v[j] : dlane_.v[j];
  }

  // Vertex compaction scratch.
  std::vector<int> left_index_;
  std::vector<int> right_index_;
  std::vector<int> left_ids_;
  std::vector<int> right_ids_;
  // Dense matrix shape over compacted vertices (rows_ <= cols_); the matrix
  // itself lives in the lane (LaneState::cost).
  int rows_ = 0;
  int cols_ = 0;
  bool transpose_ = false;
  std::vector<int> best_edge_;
  // The current problem's lane; only that lane's state is meaningful.
  bool int_lane_ = false;
  LaneState<double> dlane_;
  LaneState<std::int32_t> ilane_;
  // Lane-independent Hungarian state.
  std::vector<int> p_;  // p_[j] = row matched to column j (1-based).
  std::vector<int> used_cols_;
  std::vector<int> assignment_;
};

// One-shot convenience wrapper around MaxWeightMatcher.
std::vector<int> MaxWeightMatching(const BipartiteGraph& g,
                                   std::span<const double> weight);

}  // namespace flowsched

#endif  // FLOWSCHED_GRAPH_MAX_WEIGHT_MATCHING_H_
