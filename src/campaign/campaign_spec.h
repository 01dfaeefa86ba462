// CampaignSpec: a durable, resumable experiment campaign — an output root
// plus a list of named sweep grids (campaign/sweep_spec.h SweepSpec), each the
// unit the Aggregator reports on and the HTML report charts.
//
// flowsched_campaign is the one experiment driver; a single sweep is a
// campaign with one grid. Campaigns are *durable*: every task gets its own
// directory under <out_root>/runs/ with a meta.json (spec hash,
// provenance, exit code) so a killed campaign resumes exactly where it
// stopped (campaign/campaign_runner.h) and a collect/report step can merge
// whatever has completed so far (campaign/campaign_report.h). The pattern
// follows the cascade bench runner (SNIPPETS.md 2/3): per-run meta.json,
// --resume, --dry-run, aggregate -> static report.
//
// One source format, key=value lines with [grid] sections ('#' comments,
// blank lines ignored), checked in as campaigns/*.campaign:
//
//   name=paper-figs
//   title=Paper figure reproductions
//   out_root=campaign_runs/paper-figs
//   [grid]
//   name=fig6-art
//   solvers=online.maxcard,online.minrtime,online.maxweight
//   instances=poisson:ports={ports},load={load},rounds={rounds},seed={seed}
//   ... any sweep spec key ...
//   [grid]
//   name=...
//
// Grid names become directory-name prefixes, so they are restricted to
// [A-Za-z0-9._-] and must be unique within the campaign; the campaign
// name is restricted the same way (it defaults the out_root).
#ifndef FLOWSCHED_CAMPAIGN_CAMPAIGN_SPEC_H_
#define FLOWSCHED_CAMPAIGN_CAMPAIGN_SPEC_H_

#include <string>
#include <vector>

#include "campaign/sweep_spec.h"

namespace flowsched {

struct CampaignSpec {
  std::string name = "campaign";  // [A-Za-z0-9._-]+.
  std::string title;              // Report heading; defaults to `name`.
  std::string out_root;           // Defaults to "campaign_runs/<name>".
  std::vector<SweepSpec> grids;   // Each named, names unique.
};

// Parses a campaign from its [grid]-sectioned key=value text. Returns false
// and fills *error on malformed input (naming the 1-based line), bad names,
// duplicate/missing grids.
// Expansion-time validation (solver globs, axis/placeholder matching)
// happens later in ExpandCampaign.
bool ParseCampaignSpec(const std::string& text, CampaignSpec& spec,
                       std::string* error);

// The output root actually used: spec.out_root, or its default.
std::string CampaignOutRoot(const CampaignSpec& spec);

}  // namespace flowsched

#endif  // FLOWSCHED_CAMPAIGN_CAMPAIGN_SPEC_H_
