#include "campaign/aggregator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/csv.h"

namespace flowsched {
namespace {

// A two-cell plan with three tasks in cell 0 and one in cell 1.
SweepPlan TinyPlan() {
  SweepPlan plan;
  for (int i = 0; i < 2; ++i) {
    SweepCell cell;
    cell.index = i;
    cell.solver = i == 0 ? "online.fifo" : "online.srpt";
    cell.instance_family = "poisson:ports=8,seed={seed}";
    cell.load = 1.0;
    cell.ports = 8;
    plan.cells.push_back(cell);
  }
  for (int i = 0; i < 4; ++i) {
    SweepTask task;
    task.index = i;
    task.cell = i < 3 ? 0 : 1;
    task.instance_seed = static_cast<std::uint64_t>(i + 1);
    plan.tasks.push_back(task);
  }
  return plan;
}

constexpr int kAvgResponse = OutcomeMetricIndex("avg_response");
constexpr int kNumFlows = OutcomeMetricIndex("num_flows");

TaskOutcome Outcome(double avg) {
  TaskOutcome o;
  o.ok = true;
  o[kAvgResponse] = avg;
  o[OutcomeMetricIndex("total_response")] = 10.0 * avg;
  o[OutcomeMetricIndex("p50_response")] = avg - 1.0;
  o[OutcomeMetricIndex("p95_response")] = 2.0 * avg;
  o[OutcomeMetricIndex("p99_response")] = 2.5 * avg;
  o[OutcomeMetricIndex("max_response")] = 3.0 * avg;
  o[OutcomeMetricIndex("makespan")] = 100;
  o[kNumFlows] = 10;
  return o;
}

TEST(AggregatorTest, WelfordStatisticsMatchHandComputation) {
  const SweepPlan plan = TinyPlan();
  Aggregator agg(plan);
  // Cell 0 sees avg responses 2, 4, 9: mean 5, sample variance
  // ((-3)^2 + (-1)^2 + 4^2) / 2 = 13, stddev sqrt(13).
  agg.Add(plan.tasks[0], Outcome(2.0));
  agg.Add(plan.tasks[1], Outcome(4.0));
  agg.Add(plan.tasks[2], Outcome(9.0));
  agg.Add(plan.tasks[3], Outcome(7.0));
  ASSERT_EQ(agg.cells().size(), 2u);
  const CellAggregate& c0 = agg.cells()[0];
  EXPECT_EQ(c0.n, 3);
  EXPECT_EQ(c0.failures, 0);
  EXPECT_EQ(c0.metrics[kNumFlows].sum(), 30.0);
  EXPECT_DOUBLE_EQ(c0.metrics[kAvgResponse].mean(), 5.0);
  EXPECT_NEAR(c0.metrics[kAvgResponse].stddev(), std::sqrt(13.0), 1e-12);
  EXPECT_DOUBLE_EQ(c0.metrics[kAvgResponse].min(), 2.0);
  EXPECT_DOUBLE_EQ(c0.metrics[kAvgResponse].max(), 9.0);
  EXPECT_NEAR(Ci95HalfWidth(c0.metrics[kAvgResponse]),
              1.96 * std::sqrt(13.0) / std::sqrt(3.0), 1e-12);
  const CellAggregate& c1 = agg.cells()[1];
  EXPECT_EQ(c1.n, 1);
  EXPECT_DOUBLE_EQ(c1.metrics[kAvgResponse].mean(), 7.0);
  EXPECT_DOUBLE_EQ(Ci95HalfWidth(c1.metrics[kAvgResponse]), 0.0);  // n < 2.
}

TEST(AggregatorTest, FailuresCountSeparatelyAndSkipStats) {
  const SweepPlan plan = TinyPlan();
  Aggregator agg(plan);
  agg.Add(plan.tasks[0], Outcome(2.0));
  TaskOutcome failed;
  failed.ok = false;
  failed.error = "instance: boom";
  agg.Add(plan.tasks[1], failed);
  const CellAggregate& c0 = agg.cells()[0];
  EXPECT_EQ(c0.n, 1);
  EXPECT_EQ(c0.failures, 1);
  EXPECT_DOUBLE_EQ(c0.metrics[kAvgResponse].mean(), 2.0);  // Unpolluted by the failure.
}

TEST(AggregatorTest, JsonAndCsvReportsAreWellFormedWithoutTiming) {
  const SweepPlan plan = TinyPlan();
  SweepSpec spec;
  spec.name = "tiny";
  spec.solvers = {"online.fifo", "online.srpt"};
  spec.instances = {"poisson:ports=8,seed={seed}"};
  Aggregator agg(plan);
  for (int i = 0; i < 4; ++i) {
    TaskOutcome o = Outcome(2.0 + i);
    // Schedule-dependent: never reaches a report.
    o[OutcomeMetricIndex("wall_seconds")] = 0.5;
    o[OutcomeMetricIndex("rounds_per_sec")] = 40.0;
    agg.Add(plan.tasks[i], o);
  }

  std::ostringstream json;
  agg.WriteJson(json, spec);
  const std::string json_text = json.str();
  EXPECT_EQ(json_text.find("\"wall_seconds\""), std::string::npos);
  EXPECT_EQ(json_text.find("rounds_per_sec"), std::string::npos);
  EXPECT_EQ(json_text.find("\"jobs\""), std::string::npos);
  EXPECT_NE(json_text.find("\"sweep\": \"tiny\""), std::string::npos);
  EXPECT_NE(json_text.find("\"provenance\""), std::string::npos);
  EXPECT_NE(json_text.find("\"avg_response\""), std::string::npos);
  EXPECT_NE(json_text.find("\"tasks_ok\": 4"), std::string::npos);

  std::ostringstream csv;
  agg.WriteCsv(csv);
  const std::string csv_text = csv.str();
  // Header + one row per cell.
  EXPECT_EQ(std::count(csv_text.begin(), csv_text.end(), '\n'), 3);
  EXPECT_NE(csv_text.find("avg_response_mean"), std::string::npos);
  EXPECT_EQ(csv_text.find("wall_seconds"), std::string::npos);
}

// Instance specs contain commas ("poisson:ports=8,load=1.0") and inline
// scenario scripts contain both commas and semicolons; unquoted they shear
// the CSV report's columns. The regression: every row must round-trip
// through CsvRowReader with the same column count as the header.
TEST(AggregatorTest, CsvQuotesCommaAndSemicolonBearingFields) {
  SweepPlan plan;
  SweepCell cell;
  cell.index = 0;
  cell.solver = "online.srpt";
  cell.instance_family = "poisson:ports=8,load=1.0,rounds=40,seed={seed}";
  cell.load = 1.0;
  cell.scenario = "inline:PORT_DOWN 10 2;PORT_UP 20 2";
  plan.cells.push_back(cell);
  SweepTask task;
  task.index = 0;
  task.cell = 0;
  plan.tasks.push_back(task);

  Aggregator agg(plan);
  agg.Add(plan.tasks[0], Outcome(4.0));
  std::ostringstream csv;
  agg.WriteCsv(csv);

  std::istringstream in(csv.str());
  CsvRowReader reader(in);
  std::vector<std::vector<std::string>> rows;
  for (std::vector<std::string> row; reader.Next(&row);) rows.push_back(row);
  ASSERT_EQ(rows.size(), 2u);  // Header + one cell.
  EXPECT_EQ(rows[0].size(), rows[1].size())
      << "data row sheared against the header";
  // The multi-separator fields come back intact, quotes stripped.
  EXPECT_EQ(rows[1][1], cell.instance_family);
  EXPECT_EQ(rows[1][7], *cell.scenario);  // After the dist column.
}

}  // namespace
}  // namespace flowsched
