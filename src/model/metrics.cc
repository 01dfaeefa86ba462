#include "model/metrics.h"

#include <algorithm>

#include "util/check.h"
#include "util/stats.h"

namespace flowsched {

ScheduleMetrics ComputeMetrics(const Instance& instance,
                               const Schedule& schedule) {
  FS_CHECK(schedule.AllAssigned());
  ScheduleMetrics m;
  m.response.reserve(instance.num_flows());
  for (const Flow& e : instance.flows()) {
    const Round t = schedule.round_of(e.id);
    m.response.push_back(static_cast<double>(ResponseTime(t, e.release)));
  }
  m.makespan = schedule.Makespan();
  if (!m.response.empty()) {
    RunningStats stats;
    for (double r : m.response) stats.Add(r);
    m.total_response = stats.sum();
    m.avg_response = stats.mean();
    m.max_response = stats.max();
    m.stddev_response = stats.stddev();
    const std::vector<double> p = Percentiles(m.response, {50.0, 95.0, 99.0});
    m.p50_response = p[0];
    m.p95_response = p[1];
    m.p99_response = p[2];
  }
  return m;
}

WeightedMetrics ComputeWeightedMetrics(const Instance& instance,
                                       const Schedule& schedule,
                                       std::span<const double> weights) {
  FS_CHECK(schedule.AllAssigned());
  FS_CHECK_EQ(static_cast<int>(weights.size()), instance.num_flows());
  WeightedMetrics m;
  for (const Flow& e : instance.flows()) {
    FS_CHECK_GE(weights[e.id], 0.0);
    const double rho = ResponseTime(schedule.round_of(e.id), e.release);
    m.total_weighted_response += weights[e.id] * rho;
    m.max_weighted_response =
        std::max(m.max_weighted_response, weights[e.id] * rho);
    m.total_weight += weights[e.id];
  }
  return m;
}

}  // namespace flowsched
