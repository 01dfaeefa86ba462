#include "model/metrics.h"

#include <algorithm>
#include <array>

#include "util/check.h"
#include "util/stats.h"

namespace flowsched {
namespace {

// Nearest-rank p50/p95/p99 (util/stats.h's definition) of integer
// responses in [lo, hi], from one count per value: O(n + hi - lo) instead
// of a sorted copy. Every response is t + 1 - r, so hi - lo is at most the
// makespan plus the latest release; a span far wider than the sample (a
// hand-built schedule parking a flow far out) sorts instead, keeping the
// memory O(n).
std::array<double, 3> ResponsePercentiles(const std::vector<double>& response,
                                          double lo, double hi) {
  const std::size_t n = response.size();
  if (hi - lo > 4.0 * static_cast<double>(n)) {
    const std::vector<double> p = Percentiles(response, {50.0, 95.0, 99.0});
    return {p[0], p[1], p[2]};
  }
  std::vector<std::uint64_t> count(static_cast<std::size_t>(hi - lo) + 1);
  for (double r : response) ++count[static_cast<std::size_t>(r - lo)];
  const std::array<std::size_t, 3> bins = PercentileBins(count, n);
  return {lo + static_cast<double>(bins[0]), lo + static_cast<double>(bins[1]),
          lo + static_cast<double>(bins[2])};
}

}  // namespace

ScheduleMetrics ComputeMetrics(const Instance& instance,
                               const Schedule& schedule) {
  FS_CHECK(schedule.AllAssigned());
  ScheduleMetrics m;
  m.response.reserve(instance.num_flows());
  RunningStats stats;
  for (const Flow& e : instance.flows()) {
    const Round t = schedule.round_of(e.id);
    m.response.push_back(static_cast<double>(ResponseTime(t, e.release)));
    stats.Add(m.response.back());
  }
  m.makespan = schedule.Makespan();
  if (!m.response.empty()) {
    m.total_response = stats.sum();
    m.avg_response = stats.mean();
    m.max_response = stats.max();
    m.stddev_response = stats.stddev();
    const std::array<double, 3> p =
        ResponsePercentiles(m.response, stats.min(), stats.max());
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
