// TaskOutcome: one campaign task's scalar results, and the one table of
// outcome metrics that every writer and reader of them loops over.
//
// Each kOutcomeMetrics row names a metric once: its outcome.json key (and
// aggregate key where that differs), where a solve reports it, whether it
// is an integer, which group gates it, how a cell aggregates it and
// whether the aggregate CSV carries it. OutcomeFromSolveReport,
// WriteTaskJsonLine and ReadTaskOutcome (campaign/campaign_runner.h) and
// the Aggregator's Add, WriteJson and WriteCsv (campaign/aggregator.h) are
// loops over the rows, so adding a metric means adding one row. Row order
// is outcome.json order, and within each group also the aggregate JSON and
// CSV order.
#ifndef FLOWSCHED_CAMPAIGN_TASK_OUTCOME_H_
#define FLOWSCHED_CAMPAIGN_TASK_OUTCOME_H_

#include <array>
#include <string>
#include <string_view>

#include "api/solver.h"

namespace flowsched {

// Where a row's value comes from. Integer rows truncate it.
using MetricSource = double (*)(const SolveReport& report, const char* key);

// A ScheduleMetrics field.
template <auto Field>
double FromMetrics(const SolveReport& report, const char* /*key*/) {
  return static_cast<double>(report.metrics.*Field);
}

// The solver's diagnostics entry named like the row; 0 when absent.
inline double FromDiagnostics(const SolveReport& report, const char* key) {
  const auto it = report.diagnostics.find(key);
  return it == report.diagnostics.end() ? 0.0 : it->second;
}

// Simulate()'s round count, reported as "rounds_simulated" (0 offline).
inline double RoundsSimulated(const SolveReport& report, const char*) {
  return FromDiagnostics(report, "rounds_simulated");
}

enum class MetricType { kInt, kDouble };

// When a task carries a row: in its outcome.json and its cell's aggregate.
enum class MetricGate {
  kAlways,    // Every successful task.
  kCoflow,    // Coflow solvers: the group's first row (num_coflows) > 0.
  kFabric,    // Fabric solvers: the group's first row (shards) > 0.
  kScenario,  // Runs under a scenario script: the solve reported the group.
  kNonzero,   // The row's own value > 0 (a proven lower bound).
  kTiming,    // Every successful task; schedule-dependent, never aggregated.
};

// How a cell aggregates a carried row across its tasks.
enum class MetricAggregate {
  kNone,   // Not at all.
  kStats,  // Mean, stddev, min, max and CI (util/stats.h RunningStats).
  kSum,    // An integer sum.
  kMax,    // An integer max; a cell-level constant.
};

struct OutcomeMetric {
  const char* key;  // outcome.json key.
  MetricSource source;
  MetricType type;
  MetricGate gate;
  MetricAggregate aggregate;
  bool csv;                             // The aggregate CSV carries it.
  const char* aggregate_key = nullptr;  // Aggregate JSON/CSV key; null = key.
};

inline constexpr auto kOutcomeMetrics = [] {
  using enum MetricType;
  using enum MetricGate;
  using enum MetricAggregate;
  using M = ScheduleMetrics;
  return std::to_array<OutcomeMetric>({
      // key, source, type, gate, aggregate, csv[, aggregate key]
      {"total_response", FromMetrics<&M::total_response>, kDouble, kAlways,
       kStats, true},
      {"avg_response", FromMetrics<&M::avg_response>, kDouble, kAlways,
       kStats, true},
      {"p50_response", FromMetrics<&M::p50_response>, kDouble, kAlways,
       kStats, true},
      {"p95_response", FromMetrics<&M::p95_response>, kDouble, kAlways,
       kStats, true},
      {"p99_response", FromMetrics<&M::p99_response>, kDouble, kAlways,
       kStats, true},
      {"max_response", FromMetrics<&M::max_response>, kDouble, kAlways,
       kStats, true},
      {"stddev_response", FromMetrics<&M::stddev_response>, kDouble, kAlways,
       kNone, false},
      {"makespan", FromMetrics<&M::makespan>, kInt, kAlways, kStats, true},
      {"num_flows",
       [](const SolveReport& r, const char*) {
         return static_cast<double>(r.metrics.response.size());
       },
       kInt, kAlways, kSum, true},
      {"rounds", RoundsSimulated, kInt, kAlways, kNone, false},
      {"peak_backlog", FromDiagnostics, kInt, kAlways, kStats, true},
      {"num_coflows", FromDiagnostics, kInt, kCoflow, kSum, true},
      {"avg_cct", FromDiagnostics, kDouble, kCoflow, kStats, true},
      {"p95_cct", FromDiagnostics, kDouble, kCoflow, kStats, true},
      {"max_cct", FromDiagnostics, kDouble, kCoflow, kStats, true},
      {"avg_slowdown", FromDiagnostics, kDouble, kCoflow, kStats, true},
      {"shards", FromDiagnostics, kInt, kFabric, kMax, true, "fabric_shards"},
      {"load_imbalance", FromDiagnostics, kDouble, kFabric, kStats, true},
      {"cross_shard_flows", FromDiagnostics, kInt, kFabric, kStats, true},
      {"split_coflows", FromDiagnostics, kInt, kFabric, kStats, true},
      {"scenario_events", FromDiagnostics, kInt, kScenario, kMax, true},
      {"downtime_rounds", FromDiagnostics, kInt, kScenario, kStats, true},
      {"backlog_surge", FromDiagnostics, kDouble, kScenario, kStats, true},
      {"recovery_drain_rounds", FromDiagnostics, kInt, kScenario, kStats,
       true},
      {"response_inflation", FromDiagnostics, kDouble, kScenario, kStats,
       true},
      {"migrated_flows", FromDiagnostics, kInt, kScenario, kStats, true},
      // The solver's proven lower bound (SolveReport::lower_bound) in its
      // objective's units: per flow for total_response solvers (LP(0) / n
      // for art.theorem1), as is for max_response ones (rho_lp for
      // mrt.theorem3).
      {"lb_avg_response",
       [](const SolveReport& r, const char*) {
         const double n = static_cast<double>(r.metrics.response.size());
         return r.lower_bound && r.objective_name == "total_response" && n > 0
                    ? *r.lower_bound / n
                    : 0.0;
       },
       kDouble, kNonzero, kStats, false},
      {"lb_max_response",
       [](const SolveReport& r, const char*) {
         return r.lower_bound && r.objective_name == "max_response"
                    ? *r.lower_bound
                    : 0.0;
       },
       kDouble, kNonzero, kStats, false},
      {"wall_seconds",
       [](const SolveReport& r, const char*) { return r.wall_seconds; },
       kDouble, kTiming, kNone, false},
      {"rounds_per_sec",
       [](const SolveReport& r, const char*) {
         const double rounds = RoundsSimulated(r, nullptr);
         return rounds > 0 && r.wall_seconds > 0.0 ? rounds / r.wall_seconds
                                                   : 0.0;
       },
       kDouble, kTiming, kNone, false},
  });
}();

inline constexpr int kNumOutcomeMetrics =
    static_cast<int>(kOutcomeMetrics.size());

// The row keyed `key`, resolved at compile time: code that reads a metric
// by name holds its index, and a misspelt key does not compile.
consteval int OutcomeMetricIndex(std::string_view key) {
  for (int i = 0; i < kNumOutcomeMetrics; ++i) {
    if (key == kOutcomeMetrics[i].key) return i;
  }
  throw "no outcome metric has this key";
}

// The first row a gate covers: the row that opens kCoflow and kFabric.
consteval int FirstOutcomeMetricIn(MetricGate gate) {
  for (int i = 0; i < kNumOutcomeMetrics; ++i) {
    if (kOutcomeMetrics[i].gate == gate) return i;
  }
  throw "no outcome metric has this gate";
}

// One task's result, stored as its outcome.json and fed to the Aggregator
// (campaign/aggregator.h). OutcomeFromSolveReport, WriteTaskJsonLine and
// ReadTaskOutcome (campaign/campaign_runner.h) make, write and read it.
struct TaskOutcome {
  bool ok = false;
  std::string error;
  // The solve reported the kScenario rows (it ran under a scenario script).
  bool has_scenario = false;
  std::array<double, kNumOutcomeMetrics> values{};  // Indexed by row.

  double& operator[](int row) { return values[row]; }
  double operator[](int row) const { return values[row]; }

  // Whether this successful task carries `row`, by the row's gate.
  bool Carries(int row) const {
    switch (kOutcomeMetrics[row].gate) {
      case MetricGate::kCoflow:
        return values[FirstOutcomeMetricIn(MetricGate::kCoflow)] > 0.0;
      case MetricGate::kFabric:
        return values[FirstOutcomeMetricIn(MetricGate::kFabric)] > 0.0;
      case MetricGate::kScenario:
        return has_scenario;
      case MetricGate::kNonzero:
        return values[row] > 0.0;
      case MetricGate::kAlways:
      case MetricGate::kTiming:
        break;
    }
    return true;
  }
};

}  // namespace flowsched

#endif  // FLOWSCHED_CAMPAIGN_TASK_OUTCOME_H_
