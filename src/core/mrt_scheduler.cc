#include "core/mrt_scheduler.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/check.h"

namespace flowsched {

Schedule FifoGreedySchedule(const Instance& instance) {
  const int n = instance.num_flows();
  Schedule schedule(n);
  const SwitchSpec& sw = instance.sw();
  // Flows ordered by (release, id); each round packs the backlog greedily.
  std::vector<FlowId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](FlowId a, FlowId b) {
    return instance.flow(a).release < instance.flow(b).release;
  });
  std::vector<FlowId> backlog;
  std::size_t next = 0;
  Round t = 0;
  int scheduled = 0;
  while (scheduled < n) {
    if (backlog.empty() && next < order.size() &&
        instance.flow(order[next]).release > t) {
      t = instance.flow(order[next]).release;  // Jump idle gaps.
    }
    while (next < order.size() && instance.flow(order[next]).release <= t) {
      backlog.push_back(order[next++]);
    }
    std::vector<Capacity> in_res(sw.input_capacities());
    std::vector<Capacity> out_res(sw.output_capacities());
    std::vector<FlowId> keep;
    keep.reserve(backlog.size());
    for (FlowId e : backlog) {
      const Flow& f = instance.flow(e);
      if (f.demand <= in_res[f.src] && f.demand <= out_res[f.dst]) {
        in_res[f.src] -= f.demand;
        out_res[f.dst] -= f.demand;
        schedule.Assign(e, t);
        ++scheduled;
      } else {
        keep.push_back(e);
      }
    }
    backlog.swap(keep);
    ++t;
  }
  FS_CHECK(!schedule.ValidationError(instance).has_value());
  return schedule;
}

MrtSchedulerResult MinimizeMaxResponse(const Instance& instance,
                                       const MrtSchedulerOptions& options) {
  FS_CHECK(!instance.ValidationError().has_value());
  MrtSchedulerResult result;
  const Capacity dmax = std::max<Capacity>(instance.MaxDemand(), 1);
  result.allowance = CapacityAllowance::Additive(2 * dmax - 1);
  if (instance.num_flows() == 0) {
    result.rho_lp = 0;
    result.schedule = Schedule(0);
    return result;
  }
  // Upper bound from an integral heuristic schedule (hence LP-feasible).
  Round hi = options.rho_upper_hint;
  if (hi <= 0) {
    const Schedule greedy = FifoGreedySchedule(instance);
    const ScheduleMetrics gm = ComputeMetrics(instance, greedy);
    hi = static_cast<Round>(gm.max_response);
  }
  result.heuristic_upper_bound = hi;
  Round lo = 1;
  TimeConstrainedSolution best;
  // Establish feasibility at hi (guaranteed if hi came from a schedule, but
  // a user hint may be too small — extend geometrically then).
  for (;;) {
    TimeConstrainedSolution probe = SolveTimeConstrained(
        instance, WindowsForMaxResponse(instance, hi), options.simplex);
    ++result.binary_search_probes;
    result.simplex_iterations += probe.simplex_iterations;
    if (probe.feasible) {
      best = std::move(probe);
      break;
    }
    lo = hi + 1;
    hi *= 2;
  }
  Round best_rho = hi;
  while (lo < best_rho) {
    const Round mid = lo + (best_rho - lo) / 2;
    TimeConstrainedSolution probe = SolveTimeConstrained(
        instance, WindowsForMaxResponse(instance, mid), options.simplex);
    ++result.binary_search_probes;
    result.simplex_iterations += probe.simplex_iterations;
    if (probe.feasible) {
      best = std::move(probe);
      best_rho = mid;
    } else {
      lo = mid + 1;
    }
  }
  result.rho_lp = best_rho;
  const ActiveWindows windows = WindowsForMaxResponse(instance, best_rho);
  result.schedule = GroupRound(instance, windows, best, options.rounding,
                               &result.rounding_report);
  result.simplex_iterations += result.rounding_report.simplex_iterations;
  // The rounded schedule stays within each flow's window, so its max
  // response is at most rho_lp; validate capacity under the realized
  // violation (theorem bound unless hard drops occurred).
  const CapacityAllowance realized =
      CapacityAllowance::Additive(result.rounding_report.max_violation);
  FS_CHECK(!result.schedule.ValidationError(instance, realized).has_value());
  result.metrics = ComputeMetrics(instance, result.schedule);
  FS_CHECK_LE(result.metrics.max_response, static_cast<double>(best_rho));
  return result;
}

std::optional<DeadlineSchedulerResult> ScheduleWithDeadlines(
    const Instance& instance, std::span<const Round> deadlines,
    const MrtSchedulerOptions& options) {
  FS_CHECK(!instance.ValidationError().has_value());
  DeadlineSchedulerResult result;
  const Capacity dmax = std::max<Capacity>(instance.MaxDemand(), 1);
  result.allowance = CapacityAllowance::Additive(2 * dmax - 1);
  if (instance.num_flows() == 0) {
    result.schedule = Schedule(0);
    return result;
  }
  const ActiveWindows windows = WindowsForDeadlines(instance, deadlines);
  TimeConstrainedSolution sol =
      SolveTimeConstrained(instance, windows, options.simplex);
  if (!sol.feasible) return std::nullopt;
  result.schedule = GroupRound(instance, windows, sol, options.rounding,
                               &result.rounding_report);
  for (const Flow& e : instance.flows()) {
    FS_CHECK_LE(result.schedule.round_of(e.id), deadlines[e.id]);
    FS_CHECK_GE(result.schedule.round_of(e.id), e.release);
  }
  return result;
}

}  // namespace flowsched
