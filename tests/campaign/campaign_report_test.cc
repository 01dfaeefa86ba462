#include "campaign/campaign_report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

#include "api/instance_source.h"
#include "campaign/campaign_runner.h"
#include "campaign/campaign_spec.h"
#include "core/art_rounding.h"
#include "util/json.h"

namespace flowsched {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The report's table rows: one "<tr>...</tr>" per cell, found by solver.
std::string TableRow(const std::string& html, const std::string& solver) {
  const auto at = html.find("<tr><td>" + solver + "</td>");
  if (at == std::string::npos) return "";
  return html.substr(at, html.find("</tr>", at) - at);
}

// The provenance block (commit, compiler, flags, host) is the only part
// of a report that differs between builds of the same code.
std::string WithoutProvenance(const std::string& text) {
  static const std::regex json_block("\"provenance\": \\{[^}]*\\}");
  static const std::regex html_block("<p class=\"prov\">.*</p>");
  return std::regex_replace(std::regex_replace(text, json_block, ""),
                            html_block, "");
}

class CampaignReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RunSpec(
        "name=reptest\n"
        "title=Report test campaign\n"
        "[grid]\n"
        "name=flow\n"
        "solvers=online.fifo,online.srpt\n"
        "instances=poisson:ports=4,load={load},rounds=20,seed={seed}\n"
        "loads=0.7,1.0\n"
        "seeds=1..2\n"
        "[grid]\n"
        "name=coflow\n"
        "solvers=coflow.sebf\n"
        "instances=coflow:ports=8,load=1.0,rounds=30,width=4,seed={seed}\n"
        "seeds=1..2\n");
  }

  // Runs `text` as a fresh campaign under root_.
  void RunSpec(const std::string& text) {
    root_ = fs::temp_directory_path() /
            ("flowsched_report_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
    std::string error;
    ASSERT_TRUE(ParseCampaignSpec(text, spec_, &error)) << error;
    ASSERT_TRUE(ExpandCampaign(spec_, SolverRegistry::Global(), plan_, &error))
        << error;
    CampaignRunOptions options;
    options.jobs = 2;
    CampaignRunSummary summary;
    ASSERT_TRUE(
        RunCampaign(spec_, plan_, root_.string(), options, summary, &error))
        << error;
    ASSERT_EQ(summary.ok, plan_.total_tasks);
  }

  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
  CampaignSpec spec_;
  CampaignPlan plan_;
};

TEST_F(CampaignReportTest, CollectWritesPerGridAggregates) {
  CampaignCollectSummary summary;
  std::string error;
  ASSERT_TRUE(CollectCampaign(plan_, root_.string(), summary, &error))
      << error;
  EXPECT_EQ(summary.total, 10);
  EXPECT_EQ(summary.ok, 10);
  EXPECT_EQ(summary.failed, 0);
  EXPECT_EQ(summary.missing, 0);
  const std::string flow_json = ReadFile(root_ / "aggregate" / "flow.json");
  EXPECT_NE(flow_json.find("\"sweep\": \"flow\""), std::string::npos);
  EXPECT_NE(flow_json.find("\"avg_response\""), std::string::npos);
  // Timing never lands in campaign aggregates: they are byte-compared.
  EXPECT_EQ(flow_json.find("\"wall_seconds\""), std::string::npos);
  const std::string coflow_csv = ReadFile(root_ / "aggregate" / "coflow.csv");
  EXPECT_NE(coflow_csv.find("avg_cct_mean"), std::string::npos);
  EXPECT_EQ(coflow_csv.find("wall_seconds_mean"), std::string::npos);
}

TEST_F(CampaignReportTest, CollectIsByteDeterministic) {
  CampaignCollectSummary summary;
  std::string error;
  ASSERT_TRUE(CollectCampaign(plan_, root_.string(), summary, &error));
  const std::string first = ReadFile(root_ / "aggregate" / "flow.json");
  ASSERT_TRUE(CollectCampaign(plan_, root_.string(), summary, &error));
  EXPECT_EQ(ReadFile(root_ / "aggregate" / "flow.json"), first);
}

TEST_F(CampaignReportTest, HtmlReportIsSelfContainedAndDeterministic) {
  CampaignCollectSummary summary;
  std::string error;
  ASSERT_TRUE(CollectCampaign(plan_, root_.string(), summary, &error))
      << error;
  ASSERT_TRUE(
      WriteCampaignReport(spec_, plan_, summary, root_.string(), &error))
      << error;
  const std::string html = ReadFile(root_ / "report" / "index.html");
  // Self-contained: inline SVG, no external fetches of any kind.
  EXPECT_NE(html.find("<svg xmlns"), std::string::npos);
  EXPECT_EQ(html.find("<script"), std::string::npos);
  // The only URL anywhere is the SVG namespace declaration — nothing the
  // browser would actually fetch.
  EXPECT_EQ(html.find("href="), std::string::npos);
  EXPECT_EQ(html.find("src="), std::string::npos);
  EXPECT_EQ(html.find("<link"), std::string::npos);
  EXPECT_EQ(html.find("<img"), std::string::npos);
  // Content: title, both grids, solver names, the CI whisker tables.
  EXPECT_NE(html.find("Report test campaign"), std::string::npos);
  EXPECT_NE(html.find("<h2>flow</h2>"), std::string::npos);
  EXPECT_NE(html.find("<h2>coflow</h2>"), std::string::npos);
  EXPECT_NE(html.find("online.srpt"), std::string::npos);
  EXPECT_NE(html.find("avg CCT"), std::string::npos);
  EXPECT_NE(html.find("speedup"), std::string::npos);
  EXPECT_NE(html.find("10 tasks: <b>10 ok</b>"), std::string::npos);
  // Deterministic: regenerating produces identical bytes.
  ASSERT_TRUE(CollectCampaign(plan_, root_.string(), summary, &error));
  ASSERT_TRUE(
      WriteCampaignReport(spec_, plan_, summary, root_.string(), &error));
  EXPECT_EQ(ReadFile(root_ / "report" / "index.html"), html);
}

TEST_F(CampaignReportTest, PartialCampaignCollectsAndReportsMissing) {
  // Drop one task's outcome: collect counts it missing, report lists it.
  const std::string victim = plan_.grids[0].task_ids[3];
  fs::remove_all(CampaignTaskDir(root_.string(), victim));
  CampaignCollectSummary summary;
  std::string error;
  ASSERT_TRUE(CollectCampaign(plan_, root_.string(), summary, &error))
      << error;
  EXPECT_EQ(summary.ok, 9);
  EXPECT_EQ(summary.missing, 1);
  ASSERT_EQ(summary.missing_tasks.size(), 1u);
  EXPECT_EQ(summary.missing_tasks[0], victim);
  ASSERT_TRUE(
      WriteCampaignReport(spec_, plan_, summary, root_.string(), &error));
  const std::string html = ReadFile(root_ / "report" / "index.html");
  EXPECT_NE(html.find("Incomplete tasks"), std::string::npos);
  EXPECT_NE(html.find(victim + " (missing)"), std::string::npos);
}

// Editing a grid keeps its task ids but changes its spec hash. The old
// results in those directories belong to the old grid: collect and
// report count them as missing instead of merging them under the edited
// grid's labels.
TEST_F(CampaignReportTest, EditedGridCountsOldResultsAsMissing) {
  RunSpec(
      "name=edit\n"
      "[grid]\n"
      "name=g\n"
      "solvers=online.srpt\n"
      "instances=poisson:ports=4,load=1.0,rounds=20,seed={seed}\n"
      "seeds=1..2\n");
  CampaignSpec edited;
  CampaignPlan edited_plan;
  std::string error;
  ASSERT_TRUE(ParseCampaignSpec(
      "name=edit\n"
      "[grid]\n"
      "name=g\n"
      "solvers=online.srpt\n"
      "instances=poisson:ports=4,load=1.0,rounds=30,seed={seed}\n"
      "seeds=1..2\n",
      edited, &error))
      << error;
  ASSERT_TRUE(ExpandCampaign(edited, SolverRegistry::Global(), edited_plan,
                             &error))
      << error;
  ASSERT_EQ(edited_plan.grids[0].task_ids, plan_.grids[0].task_ids);

  CampaignCollectSummary summary;
  ASSERT_TRUE(CollectCampaign(edited_plan, root_.string(), summary, &error))
      << error;
  EXPECT_EQ(summary.total, 2);
  EXPECT_EQ(summary.ok, 0);
  EXPECT_EQ(summary.missing, 2);
  EXPECT_EQ(summary.missing_tasks, edited_plan.grids[0].task_ids);
  JsonValue aggregate;
  ASSERT_TRUE(
      ParseJson(ReadFile(root_ / "aggregate" / "g.json"), aggregate, &error))
      << error;
  EXPECT_EQ(aggregate.Find("totals")->GetInt("tasks_ok"), 0);
  ASSERT_TRUE(WriteCampaignReport(edited, edited_plan, summary,
                                  root_.string(), &error));
  EXPECT_NE(ReadFile(root_ / "report" / "index.html")
                .find(edited_plan.grids[0].task_ids[1] + " (missing)"),
            std::string::npos);

  // The unedited plan still owns those results.
  ASSERT_TRUE(CollectCampaign(plan_, root_.string(), summary, &error));
  EXPECT_EQ(summary.ok, 2);
}

// A grid without a bound-proving solver renders exactly as before the
// lower-bound columns existed: no lb_* keys, no "vs LP" columns, and (apart
// from provenance) the same bytes. The hash pins that output; a deliberate
// report format change updates it.
TEST_F(CampaignReportTest, OnlineOnlyGridHasNoLowerBoundOutput) {
  CampaignCollectSummary summary;
  std::string error;
  ASSERT_TRUE(CollectCampaign(plan_, root_.string(), summary, &error));
  ASSERT_TRUE(
      WriteCampaignReport(spec_, plan_, summary, root_.string(), &error));
  const std::string json = ReadFile(root_ / "aggregate" / "flow.json");
  const std::string html = ReadFile(root_ / "report" / "index.html");
  EXPECT_EQ(json.find("lb_"), std::string::npos);
  EXPECT_EQ(html.find("vs LP"), std::string::npos);
  EXPECT_NE(html.find("<th>max response</th>"), std::string::npos);
  EXPECT_EQ(HashHex(Fnv1a64(WithoutProvenance(json))), "2ecce8f6c995ed8d");
  EXPECT_EQ(HashHex(Fnv1a64(WithoutProvenance(html))), "5da3d299b12b5038");
}

// Figure 6's comparison: every cell of a group reads as its average
// response over the group's LP(0) bound per flow. With one instance the
// cell is exactly avg_response / (LP(0) / n), recomputed here from the
// instance itself.
TEST_F(CampaignReportTest, AvgVsLpIsTheRatioToLp0PerFlow) {
  RunSpec(
      "name=lptest\n"
      "[grid]\n"
      "name=lp\n"
      "solvers=art.theorem1,online.maxweight\n"
      "instances=poisson:ports=8,load=1.0,rounds=8,seed=1\n");
  CampaignCollectSummary summary;
  std::string error;
  ASSERT_TRUE(CollectCampaign(plan_, root_.string(), summary, &error));
  ASSERT_TRUE(
      WriteCampaignReport(spec_, plan_, summary, root_.string(), &error));
  const std::string html = ReadFile(root_ / "report" / "index.html");
  EXPECT_NE(html.find("<th>avg vs LP</th>"), std::string::npos);
  EXPECT_EQ(html.find("max vs LP"), std::string::npos);

  const SweepPlan& plan = plan_.grids[0].plan;
  ASSERT_EQ(plan.tasks.size(), 2u);
  const SweepTask& task = plan.tasks[1];
  ASSERT_EQ(plan.cells[task.cell].solver, "online.maxweight");
  const auto instance = LoadInstance(task.instance_spec, &error);
  ASSERT_TRUE(instance.has_value()) << error;
  SolveOptions options;
  options.seed = task.solver_seed;
  const SolveReport heuristic =
      SolverRegistry::Global().Solve("online.maxweight", *instance, options);
  ASSERT_TRUE(heuristic.ok) << heuristic.error;
  ArtRoundingReport rounding;
  ArtIterativeRounding(*instance, {}, &rounding);
  const double lp_per_flow = rounding.lp0_objective / instance->num_flows();
  char expected[64];
  std::snprintf(expected, sizeof(expected), "<td>%.4g&times;</td>",
                heuristic.metrics.avg_response / lp_per_flow);
  EXPECT_NE(TableRow(html, "online.maxweight").find(expected),
            std::string::npos)
      << expected << " not in " << TableRow(html, "online.maxweight");

  const std::string json = ReadFile(root_ / "aggregate" / "lp.json");
  EXPECT_NE(json.find("\"lb_avg_response\": {\"mean\": "), std::string::npos);
  EXPECT_EQ(json.find("lb_max_response"), std::string::npos);
  // The CSV schema is fixed: no lower-bound columns.
  EXPECT_EQ(ReadFile(root_ / "aggregate" / "lp.csv").find("lb_"),
            std::string::npos);
}

}  // namespace
}  // namespace flowsched
