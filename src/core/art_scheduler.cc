#include "core/art_scheduler.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/edge_coloring.h"
#include "graph/expansion.h"
#include "util/check.h"

namespace flowsched {

ArtSchedulerResult ScheduleArtWithAugmentation(
    const Instance& instance, const ArtSchedulerOptions& options) {
  FS_CHECK_GE(options.c, 1);
  const int n = instance.num_flows();
  ArtSchedulerResult result;
  result.allowance = CapacityAllowance::Factor(1.0 + options.c);
  result.schedule = Schedule(n);
  if (n == 0) {
    result.metrics = ScheduleMetrics{};
    return result;
  }
  const PseudoSchedule pseudo =
      ArtIterativeRounding(instance, options.rounding, &result.rounding_report);

  // Interval length h: the theory wants ceil((h + overload/c_p) / (1+c)) <= h,
  // i.e. h >= overload / (c_p * c); we use the *measured* window overload
  // (O(c_p log n) by Lemma 3.3, usually far smaller). The packing cursor
  // below keeps the schedule valid even if an interval overruns h.
  const double per_cap_overload =
      static_cast<double>(result.rounding_report.max_window_overload) /
      static_cast<double>(instance.sw().MinCapacity());
  const int h = options.interval_length > 0
                    ? options.interval_length
                    : std::max(1, static_cast<int>(std::ceil(
                                      per_cap_overload / options.c)));
  result.interval_length = h;
  const Round pseudo_end = pseudo.assignment.Makespan();
  const int num_intervals = (pseudo_end + h - 1) / h;
  // Bucket flows by pseudo interval.
  std::vector<std::vector<Flow>> interval_flows(num_intervals);
  for (const Flow& f : instance.flows()) {
    interval_flows[pseudo.assignment.round_of(f.id) / h].push_back(f);
  }
  // Pack each interval's matchings into the following interval, (1+c)
  // matchings per round. `cursor` never moves backwards, which keeps the
  // placement valid even if an interval needs more rounds than h (possible
  // only for small n where the O(log n) constants dominate).
  const int stack = 1 + options.c;
  Round cursor = 0;
  BacklogGraphBuilder builder;  // Reused across intervals.
  for (int j = 0; j < num_intervals; ++j) {
    if (interval_flows[j].empty()) continue;
    // Edge i of the replica graph is interval_flows[j][i].
    const BipartiteGraph& g = builder.Build(instance.sw(), interval_flows[j]);
    const EdgeColoring ec = ColorBipartiteEdges(g);
    if (options.validate) FS_CHECK(IsValidEdgeColoring(g, ec));
    result.max_colors = std::max(result.max_colors, ec.num_colors);
    const Round interval_start = (j + 1) * static_cast<Round>(h);
    cursor = std::max(cursor, interval_start);
    const auto classes = ec.ColorClasses(options.validate);
    for (std::size_t color = 0; color < classes.size(); ++color) {
      const Round round = cursor + static_cast<Round>(color) / stack;
      for (int edge : classes[color]) {
        const Flow& f = interval_flows[j][edge];
        // Releases are respected by construction: the pseudo round is >= the
        // release and the placement round is strictly later.
        FS_CHECK_GE(round, f.release);
        result.schedule.Assign(f.id, round);
        const int delay = round - pseudo.assignment.round_of(f.id);
        result.max_extra_delay = std::max(result.max_extra_delay, delay);
      }
    }
    cursor += (static_cast<Round>(ec.num_colors) + stack - 1) / stack;
  }
  FS_CHECK(result.schedule.AllAssigned());
  if (options.validate) {
    FS_CHECK_MSG(
        !result.schedule.ValidationError(instance, result.allowance).has_value(),
        *result.schedule.ValidationError(instance, result.allowance));
  }
  result.metrics = ComputeMetrics(instance, result.schedule);
  if (result.rounding_report.lp0_objective > 0.0) {
    result.approx_ratio_vs_lp =
        result.metrics.total_response / result.rounding_report.lp0_objective;
  }
  return result;
}

}  // namespace flowsched
