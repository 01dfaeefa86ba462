#include "campaign/campaign_runner.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "api/instance_source.h"
#include "campaign/campaign_plan.h"
#include "campaign/campaign_report.h"
#include "campaign/campaign_spec.h"
#include "core/mrt_scheduler.h"
#include "util/provenance.h"

namespace flowsched {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

// In-place value edit inside a meta.json: replaces the text between the
// quotes following `"key": "` — enough surgery to simulate a run produced
// by a different spec / commit / build.
void TamperJsonString(const fs::path& path, const std::string& key,
                      const std::string& new_value) {
  std::string text = ReadFile(path);
  const std::string needle = "\"" + key + "\": \"";
  const auto at = text.find(needle);
  ASSERT_NE(at, std::string::npos) << key << " not found in " << path;
  const auto start = at + needle.size();
  const auto end = text.find('"', start);
  ASSERT_NE(end, std::string::npos);
  text = text.substr(0, start) + new_value + text.substr(end);
  WriteFile(path, text);
}

class CampaignRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("flowsched_campaign_test_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(root_);
    std::string error;
    const std::string text =
        "name=unittest\n"
        "[grid]\n"
        "name=flow\n"
        "solvers=online.fifo,online.srpt\n"
        "instances=poisson:ports=4,load={load},rounds=20,seed={seed}\n"
        "loads=0.7,1.0\n"
        "seeds=1..2\n"
        "param=validate=1\n";
    ASSERT_TRUE(ParseCampaignSpec(text, spec_, &error)) << error;
    ASSERT_TRUE(ExpandCampaign(spec_, SolverRegistry::Global(), plan_, &error))
        << error;
    ASSERT_EQ(plan_.total_tasks, 8);
  }

  void TearDown() override { fs::remove_all(root_); }

  CampaignRunSummary Run(bool resume) {
    CampaignRunOptions options;
    options.jobs = 2;
    options.resume = resume;
    CampaignRunSummary summary;
    std::string error;
    EXPECT_TRUE(
        RunCampaign(spec_, plan_, root_.string(), options, summary, &error))
        << error;
    return summary;
  }

  std::string Aggregate() {
    CampaignCollectSummary summary;
    std::string error;
    EXPECT_TRUE(
        CollectCampaign(spec_, plan_, root_.string(), summary, &error))
        << error;
    EXPECT_EQ(summary.failed, 0);
    EXPECT_EQ(summary.missing, 0);
    return ReadFile(root_ / "aggregate" / "flow.json");
  }

  fs::path TaskMeta(int task_index) {
    return fs::path(CampaignTaskDir(root_.string(),
                                    plan_.grids[0].task_ids[task_index])) /
           "meta.json";
  }

  fs::path root_;
  CampaignSpec spec_;
  CampaignPlan plan_;
};

TEST_F(CampaignRunnerTest, RunsEveryTaskAndWritesDurableRecords) {
  const CampaignRunSummary summary = Run(/*resume=*/false);
  EXPECT_EQ(summary.total, 8);
  EXPECT_EQ(summary.ok, 8);
  EXPECT_EQ(summary.failed, 0);
  EXPECT_EQ(summary.skipped, 0);
  const Provenance prov = CollectProvenance();
  for (int t = 0; t < 8; ++t) {
    const std::string dir =
        CampaignTaskDir(root_.string(), plan_.grids[0].task_ids[t]);
    EXPECT_TRUE(fs::exists(fs::path(dir) / "outcome.json")) << dir;
    EXPECT_TRUE(fs::exists(fs::path(dir) / "meta.json")) << dir;
    EXPECT_TRUE(CampaignTaskUpToDate(
        dir, HashHex(plan_.grids[0].task_hashes[t]), prov))
        << dir;
    TaskOutcome outcome;
    std::string error;
    ASSERT_TRUE(ReadTaskOutcome(dir, outcome, &error)) << error;
    EXPECT_TRUE(outcome.ok);
    EXPECT_GT(outcome.num_flows, 0);
  }
}

// The acceptance criterion: a resumed campaign skips every completed task
// and its merged aggregate is byte-identical to the uninterrupted run's.
TEST_F(CampaignRunnerTest, ResumeSkipsEverythingByteIdentically) {
  Run(/*resume=*/false);
  const std::string first = Aggregate();
  const CampaignRunSummary second = Run(/*resume=*/true);
  EXPECT_EQ(second.skipped, 8);
  EXPECT_EQ(second.ran, 0);
  EXPECT_EQ(Aggregate(), first);
}

// Killed mid-campaign = some tasks have no meta.json yet. Resume re-runs
// exactly those, and the merged aggregate still matches the uninterrupted
// run byte for byte (collect reads every outcome back from disk, so both
// paths see the same serialized numbers).
TEST_F(CampaignRunnerTest, ResumeCompletesAnInterruptedRun) {
  Run(/*resume=*/false);
  const std::string uninterrupted = Aggregate();
  // Simulate the crash: tasks 2 and 5 died before their meta.json rename.
  fs::remove(TaskMeta(2));
  fs::remove(fs::path(TaskMeta(5)).parent_path() / "outcome.json");
  fs::remove(TaskMeta(5));
  const CampaignRunSummary resumed = Run(/*resume=*/true);
  EXPECT_EQ(resumed.skipped, 6);
  EXPECT_EQ(resumed.ok, 2);
  EXPECT_EQ(Aggregate(), uninterrupted);
}

TEST_F(CampaignRunnerTest, WithoutResumeEverythingReruns) {
  Run(/*resume=*/false);
  const CampaignRunSummary second = Run(/*resume=*/false);
  EXPECT_EQ(second.skipped, 0);
  EXPECT_EQ(second.ok, 8);
}

TEST_F(CampaignRunnerTest, SpecHashMismatchForcesRerun) {
  Run(/*resume=*/false);
  TamperJsonString(TaskMeta(3), "spec_hash", "deadbeefdeadbeef");
  const CampaignRunSummary second = Run(/*resume=*/true);
  EXPECT_EQ(second.skipped, 7);
  EXPECT_EQ(second.ok, 1);
}

TEST_F(CampaignRunnerTest, GitShaMismatchForcesRerun) {
  Run(/*resume=*/false);
  TamperJsonString(TaskMeta(0), "git_sha", "0000000");
  const CampaignRunSummary second = Run(/*resume=*/true);
  EXPECT_EQ(second.skipped, 7);
  EXPECT_EQ(second.ok, 1);
}

TEST_F(CampaignRunnerTest, CompilerFlagsMismatchForcesRerun) {
  Run(/*resume=*/false);
  TamperJsonString(TaskMeta(1), "compiler_flags", "-O0 -fsanitize=debugger");
  const CampaignRunSummary second = Run(/*resume=*/true);
  EXPECT_EQ(second.skipped, 7);
  EXPECT_EQ(second.ok, 1);
}

TEST_F(CampaignRunnerTest, FailedStatusForcesRerun) {
  Run(/*resume=*/false);
  TamperJsonString(TaskMeta(4), "status", "failed");
  const CampaignRunSummary second = Run(/*resume=*/true);
  EXPECT_EQ(second.skipped, 7);
  EXPECT_EQ(second.ok, 1);
}

// Editing the grid (a new axis value) changes every task hash, so nothing
// from the old directory layout is reusable.
TEST_F(CampaignRunnerTest, GridEditInvalidatesAllTasks) {
  Run(/*resume=*/false);
  CampaignSpec edited = spec_;
  edited.grids[0].loads.push_back(2.0);
  CampaignPlan edited_plan;
  std::string error;
  ASSERT_TRUE(ExpandCampaign(edited, SolverRegistry::Global(), edited_plan,
                             &error))
      << error;
  CampaignRunOptions options;
  options.jobs = 2;
  options.resume = true;
  CampaignRunSummary summary;
  ASSERT_TRUE(RunCampaign(edited, edited_plan, root_.string(), options,
                          summary, &error))
      << error;
  EXPECT_EQ(summary.skipped, 0);
  EXPECT_EQ(summary.ok, 12);
}

TEST_F(CampaignRunnerTest, UpToDateRejectsMissingDirectoryAndOutcome) {
  const Provenance prov = CollectProvenance();
  EXPECT_FALSE(CampaignTaskUpToDate((root_ / "nope").string(),
                                    "0123456789abcdef", prov));
  Run(/*resume=*/false);
  const std::string dir =
      CampaignTaskDir(root_.string(), plan_.grids[0].task_ids[6]);
  fs::remove(fs::path(dir) / "outcome.json");
  EXPECT_FALSE(CampaignTaskUpToDate(
      dir, HashHex(plan_.grids[0].task_hashes[6]), prov));
}

// The offline solvers' lower bounds ride along in outcome.json: LP(0) per
// flow for art.theorem1, rho_lp for mrt.theorem3. Resume reads them back,
// so the merged aggregate (which carries them per cell) is unchanged.
TEST_F(CampaignRunnerTest, LowerBoundsSurviveResume) {
  std::string error;
  ASSERT_TRUE(ParseCampaignSpec(
      "name=lbtest\n"
      "[grid]\n"
      "name=flow\n"
      "solvers=art.theorem1,mrt.theorem3\n"
      "instances=poisson:ports=4,load=1.0,rounds=4,seed={seed}\n"
      "seeds=1..2\n",
      spec_, &error))
      << error;
  ASSERT_TRUE(ExpandCampaign(spec_, SolverRegistry::Global(), plan_, &error))
      << error;
  Run(/*resume=*/false);
  const std::string first = Aggregate();
  EXPECT_NE(first.find("\"lb_avg_response\""), std::string::npos);
  EXPECT_NE(first.find("\"lb_max_response\""), std::string::npos);

  const SweepPlan& plan = plan_.grids[0].plan;
  for (const SweepTask& task : plan.tasks) {
    TaskOutcome outcome;
    ASSERT_TRUE(ReadTaskOutcome(
        CampaignTaskDir(root_.string(), plan_.grids[0].task_ids[task.index]),
        outcome, &error))
        << error;
    ASSERT_TRUE(outcome.ok) << outcome.error;
    if (plan.cells[task.cell].solver == "art.theorem1") {
      EXPECT_GT(outcome.lb_avg_response, 0.0);
      EXPECT_LE(outcome.lb_avg_response, outcome.avg_response);
      EXPECT_EQ(outcome.lb_max_response, 0.0);
    } else {
      const auto instance = LoadInstance(task.instance_spec, &error);
      ASSERT_TRUE(instance.has_value()) << error;
      EXPECT_EQ(outcome.lb_max_response,
                static_cast<double>(MinimizeMaxResponse(*instance).rho_lp));
      EXPECT_EQ(outcome.lb_avg_response, 0.0);
    }
  }

  const CampaignRunSummary resumed = Run(/*resume=*/true);
  EXPECT_EQ(resumed.skipped, 4);
  EXPECT_EQ(Aggregate(), first);
}

// MIGRATE scenario cells re-home arrivals. Their migrated_flows count is
// read back from outcome.json like every other field, so the aggregate
// (always collected from disk) carries the count a fresh solve reports.
TEST_F(CampaignRunnerTest, MigratedFlowsSurviveResume) {
  std::string error;
  ASSERT_TRUE(ParseCampaignSpec(
      "name=migrate\n"
      "[grid]\n"
      "name=flow\n"
      "solvers=online.srpt\n"
      "instances=poisson:ports=4,load=1.0,rounds=30,seed={seed}\n"
      "seeds=1..2\n"
      "scenarios=none|inline:MIGRATE 5 0 3 0.5\n",
      spec_, &error))
      << error;
  ASSERT_TRUE(ExpandCampaign(spec_, SolverRegistry::Global(), plan_, &error))
      << error;
  Run(/*resume=*/false);
  const std::string first = Aggregate();

  const SweepPlan& plan = plan_.grids[0].plan;
  long long migrated = 0;
  for (const SweepTask& task : plan.tasks) {
    const SweepCell& cell = plan.cells[task.cell];
    TaskOutcome stored;
    ASSERT_TRUE(ReadTaskOutcome(
        CampaignTaskDir(root_.string(), plan_.grids[0].task_ids[task.index]),
        stored, &error))
        << error;
    ASSERT_TRUE(stored.ok) << stored.error;
    const auto instance = LoadInstance(task.instance_spec, &error);
    ASSERT_TRUE(instance.has_value()) << error;
    SolveOptions solve;
    solve.seed = task.solver_seed;
    if (*cell.scenario != "none") solve.params["scenario"] = *cell.scenario;
    const TaskOutcome fresh = OutcomeFromSolveReport(
        SolverRegistry::Global().Solve(cell.solver, *instance, solve));
    EXPECT_EQ(stored.has_scenario, fresh.has_scenario);
    EXPECT_EQ(stored.migrated_flows, fresh.migrated_flows);
    migrated += stored.migrated_flows;
  }
  EXPECT_GT(migrated, 0);
  EXPECT_NE(first.find("\"migrated_flows\": {\"mean\": "), std::string::npos);
  EXPECT_EQ(first.find("\"migrated_flows\": {\"mean\": 0,"), std::string::npos)
      << first;

  const CampaignRunSummary resumed = Run(/*resume=*/true);
  EXPECT_EQ(resumed.skipped, 4);
  EXPECT_EQ(Aggregate(), first);
}

TEST_F(CampaignRunnerTest, FailingSolverParamIsRecordedNotFatal) {
  CampaignSpec bad = spec_;
  bad.grids[0].params["definitely_not_a_param"] = "1";
  CampaignPlan bad_plan;
  std::string error;
  ASSERT_TRUE(
      ExpandCampaign(bad, SolverRegistry::Global(), bad_plan, &error))
      << error;
  CampaignRunOptions options;
  options.jobs = 2;
  CampaignRunSummary summary;
  ASSERT_TRUE(RunCampaign(bad, bad_plan, root_.string(), options, summary,
                          &error))
      << error;
  EXPECT_EQ(summary.failed, 8);
  EXPECT_EQ(summary.ok, 0);
  // Failed tasks write their record too — and never satisfy resume.
  const std::string dir =
      CampaignTaskDir(root_.string(), bad_plan.grids[0].task_ids[0]);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "meta.json"));
  EXPECT_FALSE(CampaignTaskUpToDate(
      dir, HashHex(bad_plan.grids[0].task_hashes[0]), CollectProvenance()));
}

}  // namespace
}  // namespace flowsched
