// Theorem 3: optimal maximum response time with additive capacity
// augmentation 2*dmax - 1, plus the Remark 4.2 deadline variant.
//
// The minimum feasible rho for LP (19)-(21) is found by binary search (as in
// the paper's experiments, seeded by a heuristic schedule's max response);
// the fractional solution at rho* is rounded by GroupRound. rho* lower-bounds
// the optimum of ANY schedule, and the rounded schedule achieves it while
// overloading each port by at most the reported violation (<= 2*dmax - 1 on
// all tested workloads; see group_rounding.h).
#ifndef FLOWSCHED_CORE_MRT_SCHEDULER_H_
#define FLOWSCHED_CORE_MRT_SCHEDULER_H_

#include <optional>

#include "core/group_rounding.h"
#include "model/metrics.h"

namespace flowsched {

struct MrtSchedulerOptions {
  Round rho_upper_hint = 0;  // 0 = derive from a FIFO-greedy schedule.
  SimplexOptions simplex;
  GroupRoundingOptions rounding;
};

struct MrtSchedulerResult {
  // Smallest rho for which the LP is feasible: a lower bound on the optimal
  // max response time of any (non-augmented) schedule.
  Round rho_lp = 0;
  Schedule schedule;  // Max response == rho_lp, capacities augmented.
  ScheduleMetrics metrics;
  CapacityAllowance allowance;  // Additive 2*dmax - 1 (theorem bound).
  GroupRoundingReport rounding_report;
  int binary_search_probes = 0;
  Round heuristic_upper_bound = 0;
  // Simplex pivots over every probe and the rounding's LPs.
  long simplex_iterations = 0;
};

MrtSchedulerResult MinimizeMaxResponse(const Instance& instance,
                                       const MrtSchedulerOptions& options = {});

// Remark 4.2: schedule every flow within [release_e, deadline_e], capacities
// augmented by 2*dmax - 1. Returns nullopt when the LP itself is infeasible
// (then no schedule exists at all, augmented or not).
struct DeadlineSchedulerResult {
  Schedule schedule;
  CapacityAllowance allowance;
  GroupRoundingReport rounding_report;
};
std::optional<DeadlineSchedulerResult> ScheduleWithDeadlines(
    const Instance& instance, std::span<const Round> deadlines,
    const MrtSchedulerOptions& options = {});

// The FIFO-greedy heuristic used to seed the binary search (paper §5.2.2
// seeds with "the best of the three heuristics"; FIFO-greedy is simple and
// needs no matching machinery). Exposed for tests/benches.
Schedule FifoGreedySchedule(const Instance& instance);

}  // namespace flowsched

#endif  // FLOWSCHED_CORE_MRT_SCHEDULER_H_
