// Revised primal simplex with a product-form basis inverse, started from
// a crash basis, with a phase 1 only for the rows the crash leaves.
//
// Design targets (docs/architecture.md, "LP layer"): Theorem 1's LP(0) on
// the offline-art benchmark instances (8 ports, ~64 unit flows) has about
// 170 rows and 390 columns of 3 nonzeros each; LP (1)-(4) at load 4 has
// up to about 1.6k rows. B^{-1} is kept as an eta file, a product of
// elementary matrices that each differ from the identity in one column:
// BTRAN (the duals) and FTRAN (the entering direction) cost the eta file's
// nonzeros instead of m^2, and a pivot appends one eta. Every 128 pivots
// the eta file is rebuilt from the basic columns, which bounds both its
// length and the rounding it gathers. Basic optimal solutions (vertices)
// are guaranteed, which the iterative-rounding algorithms require.
//
// Starting basis: a slack for each <= row. Each >= or = row, in row order,
// takes the cheapest structural column (lowest index on ties) that covers
// it alone: a positive entry in the row, every other entry in a <= row, and
// no such row's slack driven negative; in the scheduling LPs, a flow's
// cheapest round whose ports still have room. A row no column covers alone
// keeps an artificial, and phase 1 (minimise the sum of artificials) runs
// only when one is left.
//
// Guarantees and conventions:
//  * Rows may be <=, >= or =; variables are non-negative.
//  * Returned duals y satisfy objective == y . rhs at optimality, with
//    y_i <= 0 for <= rows and y_i >= 0 for >= rows (minimization convention).
//  * kOptimal comes back only for a point that violates no row by more
//    than 1e-6. An apparent optimum further off its rows rebuilds the eta
//    file and iterates on from the recomputed point; if the freshly built
//    basis is itself that far off, the status is kIterationLimit.
//  * Anti-cycling: Dantzig pricing switches to Bland's rule after a stall,
//    for entering (lowest eligible column) and leaving (lowest basic column
//    among the tied rows) alike. Pricing and the crash all keep the lowest
//    column index on ties, so a column with the same entries as an earlier
//    one and a strictly higher cost never enters the basis.
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
  // Consecutive degenerate pivots before switching to Bland's rule; 0
  // means automatic: 512 + num_rows.
  int stall_limit = 0;
};

struct SimplexResult {
  SimplexStatus status = SimplexStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;      // Structural variable values (num_cols).
  std::vector<double> duals;  // Row duals (num_rows).
  long iterations = 0;
  // Max |Ax - b| violation over rows at the returned point; at most 1e-6
  // when the status is kOptimal.
  double primal_residual = 0.0;

  bool ok() const { return status == SimplexStatus::kOptimal; }
};

SimplexResult SolveLp(const LpProblem& lp, const SimplexOptions& options = {});

}  // namespace flowsched

#endif  // FLOWSCHED_LP_SIMPLEX_H_
