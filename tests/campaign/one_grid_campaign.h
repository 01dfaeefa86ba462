// Test helper: runs one sweep grid as a one-grid campaign — RunCampaign
// then CollectCampaign, what `flowsched_campaign run` does — in a scratch
// directory, and returns what a determinism check compares: the collected
// aggregate JSON + CSV and every task's outcome.json with its wall-clock
// fields cut.
#ifndef FLOWSCHED_TESTS_CAMPAIGN_ONE_GRID_CAMPAIGN_H_
#define FLOWSCHED_TESTS_CAMPAIGN_ONE_GRID_CAMPAIGN_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign_plan.h"
#include "campaign/campaign_report.h"
#include "campaign/campaign_runner.h"

namespace flowsched {

struct OneGridRun {
  CampaignPlan plan;
  CampaignRunSummary summary;
  CampaignCollectSummary collect;
  std::string aggregate;             // aggregate/<grid>.json, "---", .csv.
  std::vector<std::string> records;  // outcome.json per task, wall clock cut.
  std::vector<TaskOutcome> outcomes;  // The same records, read back.
};

inline std::string ReadTextFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Runs `grid` at `jobs` workers. The scratch directory is unique to this
// process, test and job count, and is removed before returning.
inline OneGridRun RunOneGridCampaign(const SweepSpec& grid, int jobs) {
  namespace fs = std::filesystem;
  OneGridRun run;
  CampaignSpec spec;
  spec.name = "test";
  spec.grids = {grid};
  std::string error;
  if (!ExpandCampaign(spec, SolverRegistry::Global(), run.plan, &error)) {
    ADD_FAILURE() << error;
    return run;
  }
  const fs::path root =
      fs::temp_directory_path() /
      ("flowsched_one_grid_" + std::to_string(::getpid()) + "_" +
       ::testing::UnitTest::GetInstance()->current_test_info()->name() +
       "_j" + std::to_string(jobs));
  fs::remove_all(root);
  CampaignRunOptions options;
  options.jobs = jobs;
  EXPECT_TRUE(RunCampaign(spec, run.plan, root.string(), options,
                          run.summary, &error))
      << error;
  EXPECT_TRUE(
      CollectCampaign(run.plan, root.string(), run.collect, &error))
      << error;
  run.aggregate = ReadTextFile(root / "aggregate" / (grid.name + ".json")) +
                  "\n---\n" +
                  ReadTextFile(root / "aggregate" / (grid.name + ".csv"));
  for (const std::string& id : run.plan.grids[0].task_ids) {
    const std::string dir = CampaignTaskDir(root.string(), id);
    std::string text = ReadTextFile(fs::path(dir) / "outcome.json");
    // wall_seconds and rounds_per_sec are the record's last two fields.
    const auto at = text.find(", \"wall_seconds\": ");
    if (at != std::string::npos) text.erase(at, text.rfind('}') - at);
    run.records.push_back(text);
    TaskOutcome outcome;
    EXPECT_TRUE(ReadTaskOutcome(dir, outcome, &error)) << error;
    run.outcomes.push_back(outcome);
  }
  fs::remove_all(root);
  return run;
}

// The --jobs determinism contract for one grid: the collected aggregates
// are byte-identical and so is every outcome.json but its wall clock.
// Returns the jobs=1 run for further checks.
inline OneGridRun ExpectIdenticalAcrossJobCounts(const SweepSpec& grid) {
  OneGridRun run1 = RunOneGridCampaign(grid, 1);
  const OneGridRun run8 = RunOneGridCampaign(grid, 8);
  EXPECT_EQ(run1.summary.failed, 0);
  EXPECT_EQ(run8.summary.failed, 0);
  EXPECT_FALSE(run1.records.empty());
  EXPECT_EQ(run1.records, run8.records);
  EXPECT_EQ(run1.aggregate, run8.aggregate);
  return run1;
}

}  // namespace flowsched

#endif  // FLOWSCHED_TESTS_CAMPAIGN_ONE_GRID_CAMPAIGN_H_
