#include "coflow/coflow_metrics.h"

#include <algorithm>

#include "util/check.h"
#include "util/stats.h"

namespace flowsched {

CoflowMetrics ComputeCoflowMetrics(const Instance& instance,
                                   const CoflowSet& coflows,
                                   const Schedule& schedule) {
  FS_CHECK(schedule.AllAssigned());
  CoflowMetrics m;
  const int n = coflows.num_groups();
  m.cct.reserve(n);
  m.slowdown.reserve(n);
  for (int g = 0; g < n; ++g) {
    Round last = 0;
    for (FlowId e : coflows.members(g)) {
      last = std::max(last, schedule.round_of(e));
    }
    const auto cct = static_cast<double>(last + 1 - coflows.release(g));
    m.cct.push_back(cct);
    const Round isolation = coflows.IsolationRounds(g, instance.sw());
    m.slowdown.push_back(isolation > 0 ? cct / isolation : 0.0);
  }
  if (!m.cct.empty()) {
    RunningStats cct_stats;
    for (double c : m.cct) cct_stats.Add(c);
    m.total_cct = cct_stats.sum();
    m.avg_cct = cct_stats.mean();
    m.max_cct = cct_stats.max();
    const std::vector<double> p = Percentiles(m.cct, {50.0, 95.0, 99.0});
    m.p50_cct = p[0];
    m.p95_cct = p[1];
    m.p99_cct = p[2];
    RunningStats slow_stats;
    for (double s : m.slowdown) slow_stats.Add(s);
    m.avg_slowdown = slow_stats.mean();
    m.max_slowdown = slow_stats.max();
  }
  return m;
}

}  // namespace flowsched
