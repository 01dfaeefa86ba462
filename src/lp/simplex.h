// Revised primal simplex with an explicit dense basis inverse, started
// from a crash basis, with a phase 1 only for the rows the crash leaves.
//
// Design targets (docs/architecture.md, "LP layer"): Theorem 1's LP(0) on
// the offline-art benchmark instances (8 ports, ~64 unit flows) has about
// 170 rows and, with one column per round, 1.5k columns of 3 nonzeros each
// (390 once window-dominated columns are dropped). A revised simplex with a
// dense row-major B^{-1} gives O(m^2) per pivot with contiguous inner loops
// (vectorized in lp/simplex_kernels.h), which is fast at this scale and has
// no external dependencies. Basic optimal solutions (vertices) are
// guaranteed, which the iterative-rounding algorithms require.
//
// Starting basis: a slack for each <= row. Each >= or = row, in row order,
// takes the cheapest structural column (lowest index on ties) that covers
// it alone: a positive entry in the row, every other entry in a <= row, and
// no such row's slack driven negative; in the scheduling LPs, a flow's
// cheapest round whose ports still have room. A row no column covers alone
// keeps an artificial, and phase 1 (minimise the sum of artificials) runs
// only when one is left. A crash start that replaced an artificial and
// runs past 2000 + 2 * num_rows pivots (when max_iterations is automatic)
// or returns a point violating a row by more than 1e-6 is thrown away, and
// the LP is solved again from the slack and artificial basis; `iterations`
// then counts both solves.
//
// Guarantees and conventions:
//  * Rows may be <=, >= or =; variables are non-negative.
//  * Returned duals y satisfy objective == y . rhs at optimality, with
//    y_i <= 0 for <= rows and y_i >= 0 for >= rows (minimization convention).
//  * Anti-cycling: Dantzig pricing switches to Bland's rule after a stall.
//    Pricing and the crash all keep the lowest column index on ties, so a
//    column with the same entries as an earlier one and a strictly higher
//    cost never enters the basis.
#ifndef FLOWSCHED_LP_SIMPLEX_H_
#define FLOWSCHED_LP_SIMPLEX_H_

#include <string>
#include <vector>

#include "lp/lp_problem.h"

namespace flowsched {

enum class SimplexStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

const char* ToString(SimplexStatus status);

struct SimplexOptions {
  // 0 means automatic: 2000 + 60 * num_rows + 2 * num_cols.
  long max_iterations = 0;
  double feasibility_tol = 1e-7;
  double optimality_tol = 1e-9;
  // Consecutive degenerate pivots before switching to Bland's rule.
  int stall_limit = 512;
};

struct SimplexResult {
  SimplexStatus status = SimplexStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;      // Structural variable values (num_cols).
  std::vector<double> duals;  // Row duals (num_rows).
  long iterations = 0;
  // Max |Ax - b| violation over rows at the returned point (audit of
  // numerical drift in the explicit inverse).
  double primal_residual = 0.0;

  bool ok() const { return status == SimplexStatus::kOptimal; }
};

SimplexResult SolveLp(const LpProblem& lp, const SimplexOptions& options = {});

}  // namespace flowsched

#endif  // FLOWSCHED_LP_SIMPLEX_H_
