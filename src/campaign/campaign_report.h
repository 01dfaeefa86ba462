// Collect + report for campaign runs (campaign/campaign_runner.h).
//
// Collect merges whatever the runs/ tree holds of the current plan: every
// task whose meta.json carries its grid's spec hash has its outcome.json
// read back from disk — never taken from in-process memory — and fed to
// the campaign/aggregator.h Aggregator in task order; any other task is
// missing. outcome.json stores every double in round-trip form, so the
// aggregates equal what an in-memory aggregation of the same solves would
// give, and a resumed campaign's report is byte-identical to an
// uninterrupted one. Aggregates land in
// <out_root>/aggregate/<grid>.json and .csv without wall-clock fields
// (they are schedule-dependent and would break the byte comparison).
// Each task is read once: the report renders the aggregates and counts
// that collect returns.
//
// Report renders <out_root>/report/index.html: a self-contained static
// page (inline CSS, inline SVG via campaign/svg_plot.h, zero external
// dependencies, no timestamps) with per-grid response-vs-axis and
// CCT-vs-axis curves carrying 95% CI whiskers, speedup tables against the
// grid's first solver, "avg/max vs LP" ratios when a solver in the grid
// proves a lower bound, robustness columns for scenario cells, and the
// failed/missing task list.
#ifndef FLOWSCHED_CAMPAIGN_CAMPAIGN_REPORT_H_
#define FLOWSCHED_CAMPAIGN_CAMPAIGN_REPORT_H_

#include <string>
#include <vector>

#include "campaign/aggregator.h"
#include "campaign/campaign_plan.h"
#include "campaign/campaign_spec.h"

namespace flowsched {

struct CampaignCollectSummary {
  int total = 0;
  int ok = 0;
  int failed = 0;        // outcome.json present with ok=false.
  int missing = 0;       // No outcome of the current grid (never ran,
                         // crashed, or ran before a grid edit).
  std::vector<std::string> failed_tasks;   // Task ids, plan order.
  std::vector<std::string> missing_tasks;
  // "<id> (failed)" or "<id> (missing)" for each such task, plan order.
  std::vector<std::string> incomplete_tasks;
  // One per plan grid, plan order: what aggregate/ was written from. Each
  // refers to its grid's plan, so it lives no longer than the plan.
  std::vector<Aggregator> aggregates;
};

// Reads every task outcome under <out_root>/runs/ and writes
// aggregate/<grid>.json and aggregate/<grid>.csv per grid. Partial
// campaigns collect fine — missing tasks are counted, not fatal. Returns
// false + *error only on filesystem failures.
bool CollectCampaign(const CampaignPlan& plan, const std::string& out_root,
                     CampaignCollectSummary& summary, std::string* error);

// Writes <out_root>/report/index.html from what CollectCampaign returned
// for the same plan. Byte-deterministic for identical runs/ contents.
// Returns false + *error on filesystem failures.
bool WriteCampaignReport(const CampaignSpec& spec, const CampaignPlan& plan,
                         const CampaignCollectSummary& summary,
                         const std::string& out_root, std::string* error);

}  // namespace flowsched

#endif  // FLOWSCHED_CAMPAIGN_CAMPAIGN_REPORT_H_
