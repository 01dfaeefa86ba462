// Aggregator: streams per-task outcomes into per-cell distributional
// statistics and writes a grid's aggregate report (campaign collect,
// campaign/campaign_report.h).
//
// Each cell keeps O(1) state per metric — Welford mean/variance plus
// min/max via util/stats.h RunningStats — so a million-task campaign
// aggregates in constant memory. Confidence intervals are the bootstrap-
// free normal approximation: mean ± 1.96 * stddev / sqrt(n), emitted as
// the half-width (0 for n < 2).
//
// Feeding order matters for bit-exactness: Welford accumulation is not
// associative in floating point, so collect feeds outcomes in task order.
// That, and leaving the schedule-dependent wall-clock fields out, is what
// makes the JSON/CSV byte-identical across --jobs values.
#ifndef FLOWSCHED_CAMPAIGN_AGGREGATOR_H_
#define FLOWSCHED_CAMPAIGN_AGGREGATOR_H_

#include <array>
#include <ostream>
#include <string>
#include <vector>

#include "campaign/sweep_spec.h"
#include "campaign/task_outcome.h"
#include "util/stats.h"

namespace flowsched {

struct CellAggregate {
  int cell = 0;        // Index into the plan's cells.
  int n = 0;           // Successful tasks aggregated.
  int failures = 0;
  // Per kOutcomeMetrics row, the values of the tasks that carried it, in
  // task order: kStats rows report the distribution across the cell's
  // (seed, trial) repetitions, kSum rows its sum(), kMax rows its max().
  // kNone rows stay empty.
  std::array<RunningStats, kNumOutcomeMetrics> metrics;

  // Whether any task carried `row` (the report writers gate on it).
  bool Carried(int row) const { return metrics[row].count() > 0; }
  // Whether any task carried the group that `gate` opens.
  bool Carried(MetricGate gate) const;
};

// Normal-approximation 95% CI half-width for a RunningStats.
double Ci95HalfWidth(const RunningStats& s);

class Aggregator {
 public:
  explicit Aggregator(const SweepPlan& plan);

  // Streams one outcome into its cell. O(1); call in task order when the
  // aggregate must be bit-exact across schedules.
  void Add(const SweepTask& task, const TaskOutcome& outcome);

  const std::vector<CellAggregate>& cells() const { return cells_; }

  // Full report, BENCH_*.json-style: spec echo, provenance block, per-cell
  // statistics, totals.
  void WriteJson(std::ostream& out, const SweepSpec& spec) const;

  // One row per cell; header first.
  void WriteCsv(std::ostream& out) const;

 private:
  const SweepPlan& plan_;
  std::vector<CellAggregate> cells_;
};

}  // namespace flowsched

#endif  // FLOWSCHED_CAMPAIGN_AGGREGATOR_H_
