// ExperimentRunner: executes an expanded SweepPlan on a work-stealing
// ThreadPool and collects one TaskOutcome per task.
//
// Determinism contract: every task runs a freshly Create()d solver (its own
// SimulationContext, scratch, and policy state) on a read-only shared
// Instance, seeded from the task's precomputed solver_seed. Outcomes land
// in a pre-sized vector slot indexed by task — no cross-thread merging —
// so everything except wall-clock fields is byte-identical for any
// --jobs value. Aggregation happens afterwards, in task order, in the
// Aggregator (exp/aggregator.h).
//
// Unique instances are materialized first (also on the pool: generating
// fifty 50k-flow Poisson families is itself parallel work), then shared by
// every task that references them. LoadInstance and Solve are safe to call
// concurrently: the registry is read-only after startup and solvers own
// all their mutable state.
#ifndef FLOWSCHED_EXP_EXPERIMENT_RUNNER_H_
#define FLOWSCHED_EXP_EXPERIMENT_RUNNER_H_

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "api/registry.h"
#include "exp/sweep_spec.h"

namespace flowsched {

// The per-run result the Aggregator consumes: the scalar summary of one
// solve. Deterministic fields first; wall_seconds / rounds_per_sec are the
// only schedule-dependent ones.
struct TaskOutcome {
  bool ok = false;
  std::string error;
  double total_response = 0.0;
  double avg_response = 0.0;
  double p50_response = 0.0;
  double p95_response = 0.0;
  double p99_response = 0.0;
  double max_response = 0.0;
  double stddev_response = 0.0;
  long long makespan = 0;
  long long num_flows = 0;
  long long rounds = 0;        // diagnostics["rounds_simulated"] (0 offline).
  long long peak_backlog = 0;  // diagnostics["peak_backlog"] (0 offline).
  // Coflow completion-time diagnostics emitted by coflow.* and fabric.*
  // solvers; num_coflows == 0 for other solvers.
  long long num_coflows = 0;
  double avg_cct = 0.0;
  double p95_cct = 0.0;
  double max_cct = 0.0;
  double avg_slowdown = 0.0;
  // Fabric sharding diagnostics emitted by fabric.* solvers
  // (fabric/fabric_solvers.cc); shards == 0 for everything else.
  long long shards = 0;
  double load_imbalance = 0.0;
  long long cross_shard_flows = 0;
  long long split_coflows = 0;
  // Robustness diagnostics emitted when the task ran under a scenario
  // script (api/scenario_support.h); has_scenario == false for fault-free
  // runs, which carry none of them.
  bool has_scenario = false;
  long long scenario_events = 0;
  long long downtime_rounds = 0;
  double backlog_surge = 0.0;
  long long recovery_drain_rounds = 0;
  double response_inflation = 0.0;
  long long migrated_flows = 0;  // MIGRATE re-homings (0 without MIGRATE).
  // The solver's proven lower bound (SolveReport::lower_bound) in the units
  // of its objective: per flow for total_response solvers (LP(0) / n for
  // art.theorem1), as is for max_response ones (rho_lp for mrt.theorem3).
  // 0 when the solver proves none.
  double lb_avg_response = 0.0;
  double lb_max_response = 0.0;
  double wall_seconds = 0.0;   // Timing — excluded from determinism checks.
  double rounds_per_sec = 0.0;
};

struct RunnerOptions {
  int jobs = 1;  // Clamped to >= 1.
  // Registry to resolve solvers from; nullptr = SolverRegistry::Global().
  const SolverRegistry* registry = nullptr;
  // When set, one JSON line per completed task is appended here, in
  // completion order (schedule-dependent; each line carries its task
  // index). This is the crash-safe incremental record of a long campaign.
  std::ostream* jsonl = nullptr;
  // Progress callback, called after each task completes (serialized).
  std::function<void(int done, int total)> progress;
};

struct SweepRun {
  SweepPlan plan;
  std::vector<TaskOutcome> outcomes;  // Indexed by SweepTask::index.
  int jobs = 1;                       // Actual worker count used.
  double wall_seconds = 0.0;          // Whole-sweep wall clock.
  int failures = 0;                   // Tasks with ok == false.
};

// Expands `spec` and runs it. Returns false and fills *error only for spec
// errors (bad grid, unknown solvers); per-task failures (bad instance spec,
// solver rejection) are recorded in the matching TaskOutcome instead so one
// broken cell cannot void a campaign.
bool RunSweep(const SweepSpec& spec, const RunnerOptions& options,
              SweepRun& run, std::string* error);

// Writes the incremental JSONL line for one finished task (exposed for
// tests; RunSweep calls it when RunnerOptions::jsonl is set). The campaign
// runner writes the same object as each task's durable outcome.json, so
// the two records share one schema.
void WriteTaskJsonLine(std::ostream& out, const SweepCell& cell,
                       const SweepTask& task, const TaskOutcome& outcome);

// Converts one SolveReport into the TaskOutcome the Aggregator consumes.
// Shared by RunSweep and the durable campaign runner
// (campaign/campaign_runner.h).
TaskOutcome OutcomeFromSolveReport(const SolveReport& report);

}  // namespace flowsched

#endif  // FLOWSCHED_EXP_EXPERIMENT_RUNNER_H_
