// flowsched_campaign: durable, resumable experiment campaigns — the one
// experiment driver. A single sweep grid is a campaign with one [grid].
//
// A campaign spec ([grid]-sectioned key=value text, as in
// campaigns/*.campaign — see docs/campaigns.md) names an output root and a
// list of sweep grids. Every expanded task gets its own directory under
// <out_root>/runs/<task_id>/ holding outcome.json + meta.json (params,
// spec hash, build provenance, timestamps, exit code), so a killed
// campaign resumes exactly where it stopped and the merged report is
// byte-identical to an uninterrupted run.
//
// Subcommands:
//   run       execute the plan (then collect + report, unless --no-report)
//   plan      print the expanded task list and exit (alias: run --dry-run)
//   status    count up-to-date / stale / missing task directories
//   collect   merge completed runs into aggregate/<grid>.{json,csv}
//   report    collect + write the self-contained report/index.html
//
// Usage:
//   flowsched_campaign run --spec=campaigns/fig6.campaign --jobs=8
//   flowsched_campaign run --spec=campaigns/fig6.campaign --resume
//   flowsched_campaign plan --spec=campaigns/core.campaign
//   flowsched_campaign report --spec=campaigns/fig6.campaign
//
// Exit codes: 0 all tasks ok (or nothing to do), 1 some task failed,
// 2 usage/spec/environment error.
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "campaign/campaign_plan.h"
#include "campaign/campaign_report.h"
#include "campaign/campaign_runner.h"
#include "campaign/campaign_spec.h"
#include "util/provenance.h"

namespace flowsched {
namespace {

void PrintUsage(std::ostream& out) {
  out << "flowsched_campaign: durable, resumable experiment campaigns.\n"
         "usage: flowsched_campaign <run|plan|status|collect|report> "
         "--spec=FILE [flags]\n"
         "  --spec=FILE    campaign spec ([grid]-sectioned key=value "
         "text)\n"
         "  --out=DIR      output root (default: spec out_root, else "
         "campaign_runs/<name>)\n"
         "  --jobs=N       worker threads per grid, at most its tasks to "
         "run\n"
         "                 (default: hardware threads)\n"
         "  --resume       skip tasks whose meta.json matches the current\n"
         "                 spec hash and build provenance\n"
         "  --dry-run      print the expanded task list and exit\n"
         "  --fail-fast    stop scheduling new tasks after the first "
         "failure\n"
         "  --no-report    run only; skip the collect + report step\n"
         "  --quiet        suppress per-task progress and task-id lines\n"
         "see docs/campaigns.md for the spec grammar, output layout,\n"
         "resume semantics, and report schema.\n";
}

int RunMain(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage(std::cerr);
    return 2;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    PrintUsage(std::cout);
    return 0;
  }
  if (command != "run" && command != "plan" && command != "status" &&
      command != "collect" && command != "report") {
    std::cerr << "error: unknown command \"" << command
              << "\" (see --help)\n";
    return 2;
  }

  std::string spec_path, out_root;
  int jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs < 1) jobs = 1;
  bool resume = false, dry_run = false, fail_fast = false;
  bool no_report = false, quiet = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const std::string& flag) -> const char* {
      const std::string prefix = "--" + flag + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + prefix.size() : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--dry-run") {
      dry_run = true;
    } else if (arg == "--fail-fast") {
      fail_fast = true;
    } else if (arg == "--no-report") {
      no_report = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if ((v = value("spec"))) {
      spec_path = v;
    } else if ((v = value("out"))) {
      out_root = v;
    } else if ((v = value("jobs"))) {
      // The whole token must be a number: "2x", "", "-1" and overflow fail.
      const char* last = v + std::strlen(v);
      const auto [ptr, ec] = std::from_chars(v, last, jobs);
      if (ec != std::errc() || ptr != last || jobs < 1) {
        std::cerr << "error: --jobs must be an integer >= 1, got \"" << v
                  << "\"\n";
        return 2;
      }
    } else {
      std::cerr << "error: unknown argument \"" << arg << "\" (see --help)\n";
      return 2;
    }
  }
  if (spec_path.empty()) {
    std::cerr << "error: --spec=FILE is required (see --help)\n";
    return 2;
  }

  std::ifstream in(spec_path);
  if (!in) {
    std::cerr << "error: cannot open spec file \"" << spec_path << "\"\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  CampaignSpec spec;
  std::string error;
  if (!ParseCampaignSpec(buffer.str(), spec, &error)) {
    std::cerr << "error: " << spec_path << ": " << error << "\n";
    return 2;
  }
  if (out_root.empty()) out_root = CampaignOutRoot(spec);

  CampaignPlan plan;
  if (!ExpandCampaign(spec, SolverRegistry::Global(), plan, &error)) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }

  if (command == "plan" || dry_run) {
    for (const CampaignGrid& grid : plan.grids) {
      std::cout << "grid " << grid.spec.name << " ("
                << grid.plan.tasks.size() << " tasks over "
                << grid.plan.cells.size() << " cells, hash "
                << HashHex(grid.grid_hash) << "):\n";
      WriteTaskListText(std::cout, grid.plan, grid.task_ids);
    }
    std::cout << "campaign " << spec.name << ": " << plan.total_tasks
              << " tasks, out root " << out_root << " (nothing executed)\n";
    return 0;
  }

  if (command == "status") {
    const Provenance prov = CollectProvenance();
    int up_to_date = 0, stale = 0;
    for (const CampaignGrid& grid : plan.grids) {
      for (const SweepTask& task : grid.plan.tasks) {
        const std::string dir =
            CampaignTaskDir(out_root, grid.task_ids[task.index]);
        if (CampaignTaskUpToDate(dir, HashHex(grid.task_hashes[task.index]),
                                 prov)) {
          ++up_to_date;
        } else {
          ++stale;
          if (!quiet) {
            std::cout << "pending " << grid.task_ids[task.index] << "\n";
          }
        }
      }
    }
    std::cout << "campaign " << spec.name << ": " << up_to_date << "/"
              << plan.total_tasks << " tasks up to date, " << stale
              << " pending (out root " << out_root << ")\n";
    return 0;
  }

  if (command == "collect" || command == "report") {
    CampaignCollectSummary summary;
    if (!CollectCampaign(plan, out_root, summary, &error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    if (command == "report") {
      if (!WriteCampaignReport(spec, plan, summary, out_root, &error)) {
        std::cerr << "error: " << error << "\n";
        return 2;
      }
      std::cout << "report written to " << out_root
                << "/report/index.html\n";
    }
    if (!quiet) {
      for (const std::string& id : summary.failed_tasks) {
        std::cout << "failed " << id << "\n";
      }
      for (const std::string& id : summary.missing_tasks) {
        std::cout << "missing " << id << "\n";
      }
    }
    std::cout << "collected " << summary.ok << "/" << summary.total
              << " tasks";
    if (summary.failed > 0) std::cout << ", " << summary.failed << " failed";
    if (summary.missing > 0) {
      std::cout << ", " << summary.missing << " missing";
    }
    std::cout << " -> " << out_root << "/aggregate/\n";
    return summary.failed == 0 ? 0 : 1;
  }

  // command == "run"
  CampaignRunOptions options;
  options.jobs = jobs;
  options.resume = resume;
  options.fail_fast = fail_fast;
  if (!quiet) options.log = &std::cerr;

  CampaignRunSummary summary;
  if (!RunCampaign(spec, plan, out_root, options, summary, &error)) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  std::cout << "campaign " << spec.name << ": " << summary.ok << " ok, "
            << summary.failed << " failed, " << summary.skipped
            << " skipped (resume), " << summary.not_run
            << " not run, of " << summary.total << " tasks\n";

  if (!no_report) {
    CampaignCollectSummary collect;
    if (!CollectCampaign(plan, out_root, collect, &error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    if (!WriteCampaignReport(spec, plan, collect, out_root, &error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    std::cout << "report written to " << out_root << "/report/index.html ("
              << collect.ok << "/" << collect.total << " tasks merged)\n";
  }
  return summary.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace flowsched

int main(int argc, char** argv) { return flowsched::RunMain(argc, argv); }
