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
#ifndef FLOWSCHED_EXP_AGGREGATOR_H_
#define FLOWSCHED_EXP_AGGREGATOR_H_

#include <ostream>
#include <string>
#include <vector>

#include "campaign/campaign_runner.h"
#include "exp/sweep_spec.h"
#include "util/stats.h"

namespace flowsched {

struct CellAggregate {
  int cell = 0;        // Index into the plan's cells.
  int n = 0;           // Successful tasks aggregated.
  int failures = 0;
  long long num_flows = 0;  // Total flows across successful tasks.
  // Distribution of each per-run summary statistic across (seed, trial)
  // repetitions of the cell.
  RunningStats total_response;
  RunningStats avg_response;
  RunningStats p50_response;
  RunningStats p95_response;
  RunningStats p99_response;
  RunningStats max_response;
  RunningStats makespan;
  RunningStats peak_backlog;
  // Coflow completion time, fed only by tasks reporting num_coflows > 0
  // (coflow.* and fabric.* solvers); the report writers emit the block
  // when any did.
  long long num_coflows = 0;  // Total groups across those tasks.
  RunningStats avg_cct;
  RunningStats p95_cct;
  RunningStats max_cct;
  RunningStats avg_slowdown;
  // Fabric sharding, fed only by tasks reporting shards > 0 (fabric.*
  // solvers). `shards` is a cell-level constant ({shards} substitutes into
  // the instance axis), recorded as the max seen for robustness.
  long long shards = 0;
  RunningStats load_imbalance;
  RunningStats cross_shard_flows;
  RunningStats split_coflows;
  // Robustness, fed only by tasks that ran under a scenario script
  // (TaskOutcome::has_scenario); scenario_n counts them so the report
  // writers can gate the block per cell.
  int scenario_n = 0;
  long long scenario_events = 0;  // Cell-level constant; max seen.
  RunningStats downtime_rounds;
  RunningStats backlog_surge;
  RunningStats recovery_drain_rounds;
  RunningStats response_inflation;
  RunningStats migrated_flows;
  // Lower bounds, fed only by tasks whose solver proves one
  // (TaskOutcome::lb_*); the JSON writer emits each when it has samples.
  RunningStats lb_avg_response;
  RunningStats lb_max_response;
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

#endif  // FLOWSCHED_EXP_AGGREGATOR_H_
