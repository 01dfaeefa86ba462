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
#ifndef FLOWSCHED_GRAPH_MAX_WEIGHT_MATCHING_H_
#define FLOWSCHED_GRAPH_MAX_WEIGHT_MATCHING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/hungarian_scan.h"

namespace flowsched {

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
  // The lane test reads the lane choice, forces the double lane on integral
  // problems to compare the two, and audits the dual certificate.
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

  // Vertex compaction + dense matrix build + lane choice. Returns false
  // when the graph has no edges (nothing to solve; *out must just stay
  // empty).
  bool PrepareProblem(const BipartiteGraph& g, std::span<const double> weight);
  // Runs the Hungarian algorithm from fresh duals in the current lane.
  void RunHungarian();
  // Extracts the matching as edge indices into *out (appends; the caller
  // clears).
  void EmitMatching(std::span<const double> weight, std::vector<int>* out);

  // Fills the current lane's cost matrix and best_edge_ (PrepareProblem's
  // last step, after compaction and the lane choice).
  void BuildCost(const BipartiteGraph& g, std::span<const double> weight);
  template <typename T>
  void FillCost(const BipartiteGraph& g, std::span<const double> weight,
                std::vector<T>& cost);
  template <typename T>
  void RunLane(LaneState<T>& lane);

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
