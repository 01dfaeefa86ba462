// CampaignRunner: executes a CampaignPlan durably — every task owns a
// directory under <out_root>/runs/<task_id>/ holding:
//
//   outcome.json   the task's TaskOutcome (WriteTaskJsonLine below:
//                  metrics, diagnostics, wall time — or ok=false + error)
//   meta.json      the commit marker: campaign/grid/task identity, spec
//                  hash, build provenance (git SHA, compiler, flags),
//                  start/end timestamps, wall time, exit code, status
//
// Write order is the crash contract: outcome.json first, then meta.json,
// each via write-to-.tmp + atomic rename. A task killed mid-run leaves no
// meta.json, so --resume re-runs it; a directory with a valid meta.json is
// complete by construction.
//
// Resume semantics (meta.json must ALL match, else the task re-runs):
//   - status == "ok" (failed tasks always retry)
//   - spec_hash == the plan's task hash (grid canonical text + task
//     coordinates; any grid edit invalidates its tasks)
//   - provenance git_sha and compiler_flags == the running binary's
//     (results from a different commit or build flags are not comparable)
//
// Execution runs each grid's tasks on clamp(jobs, 1, tasks to run) workers,
// each claiming the next task from a shared counter. Instances are
// materialized once per grid, the same way, and only the ones to-be-run
// tasks reference — a fully resumed grid loads nothing and starts no
// thread. --fail-fast stops scheduling after the
// first failure (running tasks finish; unstarted ones are left untouched
// for the next resume); the default keeps going so one broken cell cannot
// void a campaign.
//
// Determinism contract: every task runs a freshly Create()d solver (its own
// round engine, scratch, and policy state) on a read-only shared
// Instance, seeded from the task's precomputed solver_seed, and writes only
// its own directory. Everything in outcome.json except the wall-clock
// fields is therefore identical for any --jobs value, and so are the
// aggregates collect builds from it (campaign/campaign_report.h).
#ifndef FLOWSCHED_CAMPAIGN_CAMPAIGN_RUNNER_H_
#define FLOWSCHED_CAMPAIGN_CAMPAIGN_RUNNER_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "api/registry.h"
#include "campaign/campaign_plan.h"
#include "campaign/task_outcome.h"
#include "util/provenance.h"

namespace flowsched {

enum class CampaignTaskStatus {
  kPending,   // Not yet executed (plan state before running).
  kSkipped,   // Valid prior run found; directory reused.
  kOk,        // Ran this invocation, solver succeeded.
  kFailed,    // Ran this invocation, solver failed (or instance error).
  kNotRun,    // Left behind by --fail-fast.
};

struct CampaignRunOptions {
  int jobs = 1;               // Clamped to [1, tasks to run] per grid.
  bool resume = false;        // Skip tasks with valid meta.json.
  bool fail_fast = false;     // Stop scheduling after the first failure.
  const SolverRegistry* registry = nullptr;  // nullptr = global.
  std::ostream* log = nullptr;  // Per-task progress lines; nullptr = quiet.
};

struct CampaignRunSummary {
  int total = 0;
  int ran = 0;       // Executed this invocation (ok + failed).
  int ok = 0;
  int failed = 0;
  int skipped = 0;   // Reused via --resume.
  int not_run = 0;   // Abandoned by --fail-fast.
  double wall_seconds = 0.0;
  // Status per grid/task, parallel to plan.grids[g].plan.tasks.
  std::vector<std::vector<CampaignTaskStatus>> statuses;
  // Worker threads each grid's pool started (0: nothing left to run).
  std::vector<int> workers;
};

// Runs the plan into `out_root`. Returns false + *error only for
// environment-level failures (cannot create directories / write files);
// per-task solver failures land in statuses/summary instead.
bool RunCampaign(const CampaignSpec& spec, const CampaignPlan& plan,
                 const std::string& out_root,
                 const CampaignRunOptions& options,
                 CampaignRunSummary& summary, std::string* error);

// The run directory for one task: <out_root>/runs/<task_id>.
std::string CampaignTaskDir(const std::string& out_root,
                            const std::string& task_id);

// True when `dir` holds a completed, matching run: meta.json parses with
// status "ok", spec_hash == expected_hash_hex, provenance git_sha and
// compiler_flags match `prov`, and outcome.json exists. Exposed for
// resume-invalidation tests.
bool CampaignTaskUpToDate(const std::string& dir,
                          const std::string& expected_hash_hex,
                          const Provenance& prov);

// True when `dir`'s meta.json records spec_hash == expected_hash_hex: the
// directory holds a result of the current grid, whatever its status or
// build. Collect and report read only such tasks.
bool CampaignTaskOfSpec(const std::string& dir,
                        const std::string& expected_hash_hex);

// Converts one SolveReport into the task's TaskOutcome.
TaskOutcome OutcomeFromSolveReport(const SolveReport& report);

// Writes one task's outcome.json object (one line). Doubles are written in
// shortest round-trip form, so ReadTaskOutcome restores every field bit for
// bit and collect aggregates exactly what the solver reported.
void WriteTaskJsonLine(std::ostream& out, const SweepCell& cell,
                       const SweepTask& task, const TaskOutcome& outcome);

// Reads a task directory's outcome.json back into a TaskOutcome. Returns
// false + *error when the file is missing or malformed (collect treats
// that as a failed task).
bool ReadTaskOutcome(const std::string& dir, TaskOutcome& outcome,
                     std::string* error);

}  // namespace flowsched

#endif  // FLOWSCHED_CAMPAIGN_CAMPAIGN_RUNNER_H_
