// Theorem 1: the (1+c, O(log n)/c) offline algorithm for FS-ART.
//
// Pipeline (paper §3.2): iterative rounding produces a pseudo-schedule whose
// window overloads are O(c_p log n). The timeline is cut into intervals of
// length h ~ log(n)/c; each interval's flows are expanded into a
// unit-capacity multigraph by port replication, edge-colored (Birkhoff-von
// Neumann), and the resulting matchings are packed (1+c) per round into the
// *next* interval — so every flow still runs at/after its release, each port
// carries at most (1+c) * c_p demand per round, and each flow is delayed by
// at most h + ceil(Delta / (1+c)) = O(log n / c) rounds.
#ifndef FLOWSCHED_CORE_ART_SCHEDULER_H_
#define FLOWSCHED_CORE_ART_SCHEDULER_H_

#include "core/art_rounding.h"
#include "model/metrics.h"

namespace flowsched {

struct ArtSchedulerOptions {
  int c = 2;  // Capacity blowup is (1 + c); response blowup O(log n)/c.
  int interval_length = 0;  // 0 = automatic: max(1, ceil(4 log2(n+2) / c)).
  // Re-validate each interval's coloring and the final schedule (FS_CHECK).
  // On by default; benchmarks turn it off to keep hot loops audit-free.
  bool validate = true;
  ArtRoundingOptions rounding;
};

struct ArtSchedulerResult {
  Schedule schedule;
  ScheduleMetrics metrics;
  CapacityAllowance allowance;  // factor (1 + c).
  ArtRoundingReport rounding_report;
  int interval_length = 0;      // h.
  int max_colors = 0;           // Largest BvN decomposition, over intervals.
  int max_extra_delay = 0;      // Worst realized (final - pseudo) round gap.
  // Ratio of achieved total response to the LP(0) lower bound.
  double approx_ratio_vs_lp = 0.0;
};

ArtSchedulerResult ScheduleArtWithAugmentation(
    const Instance& instance, const ArtSchedulerOptions& options = {});

}  // namespace flowsched

#endif  // FLOWSCHED_CORE_ART_SCHEDULER_H_
