// Warm-start wrapper around MaxWeightMatcher for round-by-round re-solves.
//
// The online/coflow maxweight policies solve a fresh max-weight matching on
// the backlog graph every round, but the backlog only changes by
// O(arrivals + departures) per round: most rounds the dense Hungarian
// problem is identical to the previous one, or differs only in a suffix of
// its rows. IncrementalMatcher exploits that while keeping schedules
// bit-exact (ROADMAP item 4's contract): it only ever takes shortcuts that
// provably reproduce the from-scratch operation sequence.
//
// Three paths, checked in order against the previous round's dense matrix:
//   1. Cache hit — the matrix is bitwise identical: the previous optimal
//      assignment is re-emitted without touching the Hungarian state.
//   2. Prefix resume — the first k rows are bitwise identical: the
//      Hungarian state after row k is a pure function of rows 1..k, so the
//      solver restores the per-row checkpoint recorded by the previous
//      solve and replays only rows k+1..n. The replay performs the exact
//      IEEE operation sequence of a from-scratch solve.
//   3. Full solve — anything else (dims or value lane changed, row 1
//      changed, no usable history): plain InitDuals + RunRows(1).
// Warm-started duals in the classic sense (reusing final potentials as a
// starting point) are deliberately NOT used by default: per-round optima
// are almost never unique here, and different-but-optimal duals change the
// tie-break and therefore the emitted schedule. The checkpoint scheme is
// the strongest warm start that keeps byte-identical output.
//
// All scratch (previous matrix, checkpoints) lives in the object, so
// policies holding one across rounds keep the simulator's zero-allocation
// round contract once buffers reach their high-water mark.
#ifndef FLOWSCHED_GRAPH_INCREMENTAL_MATCHING_H_
#define FLOWSCHED_GRAPH_INCREMENTAL_MATCHING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/max_weight_matching.h"

namespace flowsched {

class IncrementalMatcher {
 public:
  struct Stats {
    std::int64_t solves = 0;          // Total Solve() calls.
    std::int64_t empty_graphs = 0;    // Calls with no edges (trivial).
    std::int64_t cache_hits = 0;      // Identical matrix, re-emitted.
    std::int64_t prefix_resumes = 0;  // Resumed from a row checkpoint.
    std::int64_t full_solves = 0;     // From-scratch Hungarian runs.
    std::int64_t reused_rows = 0;     // Rows skipped via checkpoints.
    std::int64_t total_rows = 0;      // Rows across all non-empty solves.
  };

  // Drop-in replacement for MaxWeightMatcher::Solve: overwrites *out with
  // edge indices of a maximum-weight matching, bit-identical to what a
  // from-scratch MaxWeightMatcher would return for the same call.
  void Solve(const BipartiteGraph& g, std::span<const double> weight,
             std::vector<int>* out);

  // Forgets all history; the next Solve runs from scratch. Stats persist.
  void Reset();

  const Stats& stats() const { return stats_; }

  // Test hooks: dual-certificate checks over the state of the last
  // non-empty solve. Feasibility: max over all cells of u_i + v_j - C(i,j)
  // (<= 0 up to rounding when the duals are feasible). Tightness: max
  // |u_i + v_j - C(i,j)| over matched cells (0 at optimality). Both return
  // 0 when there is no solved state.
  double MaxDualViolation() const;
  double MaxMatchedSlack() const;

 private:
  // 0-based index of the first row whose costs differ from the previous
  // matrix; rows_ when the matrices are bitwise identical.
  int FirstChangedRow() const;

  MaxWeightMatcher core_;
  HungarianCheckpoints checkpoints_;
  // True when checkpoints_ was recorded against the previous solve's
  // matrix (recording is skipped on workloads with no prefix stability;
  // restoring a stale snapshot would be unsound).
  bool checkpoints_fresh_ = false;
  // Evidence-driven recording: set when the last solve shared a row prefix
  // with its predecessor. Starts true so the first solve records.
  bool record_next_ = true;
  // Previous round's dense problem, for diffing, in its value lane.
  bool valid_ = false;
  int prev_rows_ = 0;
  int prev_cols_ = 0;
  bool prev_int_lane_ = false;
  std::vector<double> prev_dcost_;
  std::vector<std::int32_t> prev_icost_;
  Stats stats_;
};

}  // namespace flowsched

#endif  // FLOWSCHED_GRAPH_INCREMENTAL_MATCHING_H_
