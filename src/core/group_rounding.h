// Group rounding for the time-constrained LP (the role of Karp et al. [35],
// Lemma 4.3, in the paper's Theorem 3).
//
// Given a fractional solution x of LP (19)-(21), produces an integral
// assignment (every flow in exactly one active round) whose per-(port,round)
// load exceeds the capacity by at most an additive term. We implement an
// iterative LP-relaxation rounder (docs/architecture.md, "LP layer", has
// the substitution rationale). Every capacity row starts at the paper's
// budget c_p + (2*dmax - 1). Each pass re-solves the residual LP for a
// vertex and permanently fixes the (numerically) integral variables whose
// round stays within that budget; a vertex that fixes nothing has its
// heaviest variable fixed instead, in a round within budget when it has
// one. Only when forced fixes make the LP infeasible is a row lifted to
// unbounded, counted as `hard_drops`. Violations beyond 2*dmax - 1 come
// from those, or from a forced fix of a flow none of whose rounds fits the
// budget (it takes its least-overshooting round; seen only on
// over-committed input, outside GroupRound's LP-feasible precondition).
// The realized worst violation is measured and reported either way.
#ifndef FLOWSCHED_CORE_GROUP_ROUNDING_H_
#define FLOWSCHED_CORE_GROUP_ROUNDING_H_

#include "core/mrt_lp.h"
#include "model/schedule.h"

namespace flowsched {

struct GroupRoundingOptions {
  SimplexOptions simplex;
  double integrality_tol = 1e-6;
  int max_lp_solves = 300;
};

struct GroupRoundingReport {
  int lp_solves = 0;
  int hard_drops = 0;     // Rows raised beyond the paper's bound.
  int forced_fixes = 0;   // Flows fixed by argmax after the solve budget.
  Capacity max_violation = 0;  // Measured load - c_p over all (port, round).
  Capacity bound = 0;          // 2*dmax - 1 for reference.
  // Optimal objective of the first residual LP (its costs are random); 0
  // when the fractional solution was already integral.
  double first_lp_objective = 0.0;
  long simplex_iterations = 0;  // Summed over the residual LPs.
};

// Requires a feasible fractional solution for (instance, windows). Returns
// the rounded schedule; the caller validates under
// CapacityAllowance::Additive(report.max_violation) or the theorem bound.
Schedule GroupRound(const Instance& instance, const ActiveWindows& windows,
                    const TimeConstrainedSolution& fractional,
                    const GroupRoundingOptions& options = {},
                    GroupRoundingReport* report = nullptr);

}  // namespace flowsched

#endif  // FLOWSCHED_CORE_GROUP_ROUNDING_H_
