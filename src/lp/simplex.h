// Two-phase revised primal simplex with an explicit dense basis inverse.
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
// Guarantees and conventions:
//  * Rows may be <=, >= or =; variables are non-negative.
//  * Returned duals y satisfy objective == y . rhs at optimality, with
//    y_i <= 0 for <= rows and y_i >= 0 for >= rows (minimization convention).
//  * Anti-cycling: Dantzig pricing switches to Bland's rule after a stall.
//    Both keep the lowest column index on ties, so a column with the same
//    entries as an earlier one and a strictly higher cost never enters.
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
