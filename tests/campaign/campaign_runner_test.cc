#include "campaign/campaign_runner.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "../campaign/one_grid_campaign.h"
#include "api/instance_source.h"
#include "campaign/campaign_plan.h"
#include "campaign/campaign_report.h"
#include "campaign/campaign_spec.h"
#include "core/mrt_scheduler.h"
#include "util/json.h"
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
        CollectCampaign(plan_, root_.string(), summary, &error))
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
    EXPECT_GT(outcome[OutcomeMetricIndex("num_flows")], 0);
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
    const double lb_avg = outcome[OutcomeMetricIndex("lb_avg_response")];
    const double lb_max = outcome[OutcomeMetricIndex("lb_max_response")];
    if (plan.cells[task.cell].solver == "art.theorem1") {
      EXPECT_GT(lb_avg, 0.0);
      EXPECT_LE(lb_avg, outcome[OutcomeMetricIndex("avg_response")]);
      EXPECT_EQ(lb_max, 0.0);
    } else {
      const auto instance = LoadInstance(task.instance_spec, &error);
      ASSERT_TRUE(instance.has_value()) << error;
      EXPECT_EQ(lb_max,
                static_cast<double>(MinimizeMaxResponse(*instance).rho_lp));
      EXPECT_EQ(lb_avg, 0.0);
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
  constexpr int kMigratedFlows = OutcomeMetricIndex("migrated_flows");
  double migrated = 0;
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
    EXPECT_EQ(stored[kMigratedFlows], fresh[kMigratedFlows]);
    migrated += stored[kMigratedFlows];
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

// The pool each grid starts is clamp(jobs, 1, tasks to run): asking for
// more workers than tasks starts one per task, and a fully resumed grid
// starts none.
TEST_F(CampaignRunnerTest, PoolIsClampedToTasksToRun) {
  CampaignRunOptions options;
  options.jobs = 64;
  CampaignRunSummary summary;
  std::string error;
  ASSERT_TRUE(
      RunCampaign(spec_, plan_, root_.string(), options, summary, &error))
      << error;
  ASSERT_EQ(summary.workers.size(), 1u);
  EXPECT_EQ(summary.workers[0], 8);
  EXPECT_EQ(summary.ok, 8);

  fs::remove(TaskMeta(3));
  options.jobs = 4;
  options.resume = true;
  ASSERT_TRUE(
      RunCampaign(spec_, plan_, root_.string(), options, summary, &error))
      << error;
  EXPECT_EQ(summary.workers[0], 1);
  EXPECT_EQ(summary.ok, 1);

  ASSERT_TRUE(
      RunCampaign(spec_, plan_, root_.string(), options, summary, &error))
      << error;
  EXPECT_EQ(summary.workers[0], 0);
  EXPECT_EQ(summary.skipped, 8);
}

// Every outcome metric set to a value that needs all 17 significant
// digits survives outcome.json bit for bit, and writing the read-back
// outcome reproduces the record exactly — so no metric is written but not
// read back, and collect aggregates exactly what the solver reported.
TEST_F(CampaignRunnerTest, OutcomeRecordRoundTripsEveryFieldBitExactly) {
  double next_double = 0.0;
  long long next_int = 1234567890123LL;
  TaskOutcome o;
  o.ok = true;
  o.has_scenario = true;
  for (int m = 0; m < kNumOutcomeMetrics; ++m) {
    o[m] = kOutcomeMetrics[m].type == MetricType::kInt
               ? static_cast<double>(next_int += 7)
               : (next_double += 1.0 + 1.0 / 3.0);
  }
  o[OutcomeMetricIndex("wall_seconds")] = 0.1 + 0.2;

  const SweepPlan& plan = plan_.grids[0].plan;
  const SweepTask& task = plan.tasks[5];
  const SweepCell& cell = plan.cells[task.cell];
  const fs::path dir = root_ / "record";
  fs::create_directories(dir);
  std::ostringstream written;
  WriteTaskJsonLine(written, cell, task, o);
  WriteFile(dir / "outcome.json", written.str());

  TaskOutcome r;
  std::string error;
  ASSERT_TRUE(ReadTaskOutcome(dir.string(), r, &error)) << error;
  EXPECT_EQ(r.ok, o.ok);
  EXPECT_EQ(r.has_scenario, o.has_scenario);
  for (int m = 0; m < kNumOutcomeMetrics; ++m) {
    EXPECT_EQ(r[m], o[m]) << kOutcomeMetrics[m].key;
  }

  std::ostringstream rewritten;
  WriteTaskJsonLine(rewritten, cell, task, r);
  EXPECT_EQ(rewritten.str(), written.str());
}

TEST(OutcomeRecordTest, JsonLineCarriesTaskIdentityAndEscapesErrors) {
  SweepCell cell;
  cell.index = 1;
  cell.solver = "online.fifo";
  SweepTask task;
  task.index = 3;
  task.cell = 1;
  task.instance_spec = "poisson:ports=8,seed=2";
  TaskOutcome o;
  o.ok = true;
  o[OutcomeMetricIndex("avg_response")] = 3.0;
  std::ostringstream out;
  WriteTaskJsonLine(out, cell, task, o);
  const std::string line = out.str();
  EXPECT_NE(line.find("\"task\": 3"), std::string::npos);
  EXPECT_NE(line.find("\"cell\": 1"), std::string::npos);
  EXPECT_NE(line.find("\"solver\": \"online.fifo\""), std::string::npos);
  EXPECT_NE(line.find("\"ok\": true"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');

  TaskOutcome failed;
  failed.error = "no such \"solver\"";
  std::ostringstream fail_out;
  WriteTaskJsonLine(fail_out, cell, task, failed);
  EXPECT_NE(fail_out.str().find("\\\"solver\\\""), std::string::npos);
}

SweepSpec RandomFlowGrid() {
  SweepSpec spec;
  spec.name = "flow";
  spec.solvers = {"online.fifo", "online.srpt", "online.random"};
  spec.instances = {"poisson:ports={ports},load={load},rounds=20,seed={seed}"};
  spec.loads = {0.7, 1.0};
  spec.ports = {4, 8};
  spec.seeds = {1, 2};
  spec.base_seed = 7;
  spec.params["validate"] = "1";
  return spec;
}

// The --jobs determinism guarantee through the one experiment driver.
// online.random is in the solver set on purpose: it consumes its seed every
// round, so any cross-thread seed leakage would show up immediately.
TEST(CampaignJobsTest, FlowGridIsIdenticalAcrossJobCounts) {
  const OneGridRun run = ExpectIdenticalAcrossJobCounts(RandomFlowGrid());
  EXPECT_EQ(run.outcomes.size(), 24u);
  EXPECT_EQ(run.collect.ok, 24);
}

// Same guarantee for the realistic-traffic axis: a {dist} grid over the
// builtin CDFs.
TEST(CampaignJobsTest, DistGridIsIdenticalAcrossJobCounts) {
  SweepSpec spec;
  spec.name = "dist";
  spec.solvers = {"online.srpt", "online.random"};
  spec.instances = {"cdf:dist={dist},ports=16,load=0.9,rounds=30,seed={seed}"};
  spec.dists = {"websearch", "fbhdp", "alistorage"};
  spec.seeds = {1, 2};
  spec.base_seed = 3;
  const OneGridRun run = ExpectIdenticalAcrossJobCounts(spec);
  // The aggregate echoes each cell's dist coordinate.
  EXPECT_NE(run.aggregate.find("\"dist\": \"fbhdp\""), std::string::npos);
}

// online.random with two trials on one fixed instance: the trials get
// different solver seeds, and the cell aggregates n = 2.
TEST(CampaignJobsTest, TrialsVarySolverSeedsWithinACell) {
  SweepSpec spec;
  spec.name = "trials";
  spec.solvers = {"online.random"};
  spec.instances = {"poisson:ports=8,load=1.0,rounds=20,seed={seed}"};
  spec.seeds = {1};
  spec.trials = 2;
  const OneGridRun run = RunOneGridCampaign(spec, 2);
  EXPECT_EQ(run.summary.ok, 2);
  const SweepPlan& plan = run.plan.grids[0].plan;
  ASSERT_EQ(plan.tasks.size(), 2u);
  EXPECT_NE(plan.tasks[0].solver_seed, plan.tasks[1].solver_seed);
  JsonValue aggregate;
  std::string error;
  ASSERT_TRUE(ParseJson(run.aggregate.substr(0, run.aggregate.find("---")),
                        aggregate, &error))
      << error;
  const JsonValue* cells = aggregate.Find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->items.size(), 1u);
  EXPECT_EQ(cells->items[0].GetInt("n"), 2);
}

// A template that fails at load time (missing trace file) fails its own
// task; the campaign runs the rest and collect reports it as failed.
TEST(CampaignJobsTest, MissingTraceFailsItsTaskNotTheCampaign) {
  SweepSpec spec;
  spec.name = "broken";
  spec.solvers = {"online.fifo"};
  spec.instances = {"poisson:ports=4,load=1.0,rounds=10,seed={seed}",
                    "no/such/trace_{seed}.csv"};
  spec.seeds = {1};
  const OneGridRun run = RunOneGridCampaign(spec, 2);
  EXPECT_EQ(run.summary.ok, 1);
  EXPECT_EQ(run.summary.failed, 1);
  EXPECT_EQ(run.collect.failed, 1);
  ASSERT_EQ(run.outcomes.size(), 2u);
  EXPECT_TRUE(run.outcomes[0].ok) << run.outcomes[0].error;
  EXPECT_FALSE(run.outcomes[1].ok);
  EXPECT_NE(run.outcomes[1].error.find("no/such/trace_1.csv"),
            std::string::npos)
      << run.outcomes[1].error;
}

}  // namespace
}  // namespace flowsched
