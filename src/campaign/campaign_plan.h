// CampaignPlan: the deterministic expansion of a CampaignSpec — every grid
// expanded through ExpandSweep (campaign/sweep_spec.h), every task given a
// stable directory-safe id and a spec hash.
//
// Task identity is the resume contract (campaign/campaign_runner.h): a
// finished run directory is reused if and only if its recorded spec hash
// AND build provenance (git SHA, compiler flags) match the current plan.
// The hash folds the grid's canonical serialization with the task's own
// coordinates, so *any* change to the grid — a new axis value, a reordered
// solver list, a different base_seed — invalidates all of its tasks:
// task indices shift with grid shape, and a stale directory must never be
// mistaken for the new task that now owns its id.
#ifndef FLOWSCHED_CAMPAIGN_CAMPAIGN_PLAN_H_
#define FLOWSCHED_CAMPAIGN_CAMPAIGN_PLAN_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "campaign/campaign_spec.h"
#include "campaign/sweep_spec.h"

namespace flowsched {

struct CampaignGrid {
  SweepSpec spec;
  SweepPlan plan;
  std::uint64_t grid_hash = 0;          // FNV-1a over the canonical spec.
  std::vector<std::string> task_ids;    // Indexed by SweepTask::index.
  std::vector<std::uint64_t> task_hashes;
};

struct CampaignPlan {
  std::vector<CampaignGrid> grids;
  int total_tasks = 0;
};

// Expands every grid against `registry`; false + *error names the failing
// grid on invalid specs (unknown solvers, axis mismatches, bad templates).
bool ExpandCampaign(const CampaignSpec& spec, const SolverRegistry& registry,
                    CampaignPlan& plan, std::string* error);

// Canonical fixed-order serialization of a sweep spec — the hashing
// input. Stable across spec layouts (key order, comments, blank lines),
// so rewriting a spec file keeps its task hashes.
std::string CanonicalSweepSpecText(const SweepSpec& spec);

// 64-bit FNV-1a, the repo-local content hash for resume checks.
std::uint64_t Fnv1a64(const std::string& text);

// "<grid>-NNNN-<solver>", e.g. "fig6-0007-online.maxweight": readable,
// unique within the campaign (grid names are unique and indices padded),
// and safe as a directory name (solver names are [a-z.]+).
std::string CampaignTaskId(const SweepSpec& grid_spec, const SweepPlan& plan,
                           int task_index);

// 16 lowercase hex digits; meta.json's "spec_hash" format.
std::string HashHex(std::uint64_t hash);

// Prints one line per task — id, solver, fully substituted instance spec,
// seed/trial, scenario — the body of flowsched_campaign plan / --dry-run.
void WriteTaskListText(std::ostream& out, const SweepPlan& plan,
                       const std::vector<std::string>& ids);

}  // namespace flowsched

#endif  // FLOWSCHED_CAMPAIGN_CAMPAIGN_PLAN_H_
