// Golden lock on the fabric subsystem, mirroring coflow_regression_test:
// the merged metrics fabric.sebf produces on a fixed fabric spec are
// pinned, and a {shards}-axis grid is byte-identical regardless of the
// campaign runner's --jobs.
#include <gtest/gtest.h>

#include <string>

#include "../campaign/one_grid_campaign.h"
#include "api/instance_source.h"
#include "api/registry.h"

namespace flowsched {
namespace {

constexpr char kSpec[] =
    "fabric:shards=4,partition=block,"
    "coflow:ports=16,load=1.0,rounds=40,width=6,skew=0.7,seed=5";

// Captured with:
//   flowsched_cli --instance=<kSpec> --solver=fabric.sebf --diagnostics
// The inner instance is coflow_regression_test's golden instance, so the
// single-switch numbers pinned there are this fabric's baseline: sharding
// 4 ways trades a x4 egress allowance for lower response/CCT.
struct Golden {
  const char* solver;
  double total_response;
  double total_cct;
  double max_cct;
  double cross_shard_flows;
  double split_coflows;
  double load_imbalance;
};

const Golden kGoldens[] = {
    {"fabric.sebf", 2342, 1198, 23, 467, 133, 1.038},
};

TEST(FabricRegressionTest, MergedMetricsMatchGoldens) {
  std::string error;
  const auto instance = LoadInstance(kSpec, &error);
  ASSERT_TRUE(instance.has_value()) << error;
  for (const Golden& golden : kGoldens) {
    const SolveReport report =
        SolverRegistry::Global().Solve(golden.solver, *instance);
    ASSERT_TRUE(report.ok) << golden.solver << ": " << report.error;
    EXPECT_DOUBLE_EQ(report.metrics.total_response, golden.total_response)
        << golden.solver;
    EXPECT_DOUBLE_EQ(report.diagnostics.at("total_cct"), golden.total_cct)
        << golden.solver;
    EXPECT_DOUBLE_EQ(report.diagnostics.at("max_cct"), golden.max_cct)
        << golden.solver;
    EXPECT_DOUBLE_EQ(report.diagnostics.at("cross_shard_flows"),
                     golden.cross_shard_flows)
        << golden.solver;
    EXPECT_DOUBLE_EQ(report.diagnostics.at("split_coflows"),
                     golden.split_coflows)
        << golden.solver;
    EXPECT_NEAR(report.diagnostics.at("load_imbalance"),
                golden.load_imbalance, 1e-3)
        << golden.solver;
    EXPECT_EQ(report.allowance.factor, 4.0) << golden.solver;
  }
}

// The acceptance bar: a {shards} x load grid over fabric solvers produces
// outcomes — fabric columns included — and collected reports that are
// byte-identical for any --jobs value.
TEST(FabricRegressionTest, ShardSweepIsIdenticalAcrossJobCounts) {
  SweepSpec spec;
  spec.name = "fabric-regression";
  spec.solvers = {"fabric.sebf", "fabric.srpt"};
  spec.instances = {
      "fabric:shards={shards},partition=block,"
      "coflow:ports=16,load={load},rounds=30,width=6,skew=0.7,seed={seed}"};
  spec.shards = {1, 2, 4};
  spec.loads = {0.8, 1.0};
  spec.seeds = {1, 2};
  spec.base_seed = 3;
  spec.params["validate"] = "1";

  const OneGridRun run = ExpectIdenticalAcrossJobCounts(spec);
  ASSERT_EQ(run.outcomes.size(), 24u);  // 2 solvers x 3 shards x 2 x 2.
  bool saw_fabric = false;
  for (const TaskOutcome& o : run.outcomes) {
    saw_fabric = saw_fabric || o[OutcomeMetricIndex("shards")] > 0;
  }
  EXPECT_TRUE(saw_fabric);

  // Every cell carries its {shards} coordinate.
  for (const SweepCell& cell : run.plan.grids[0].plan.cells) {
    ASSERT_TRUE(cell.shards.has_value());
  }
  // The fabric columns made it into both report formats.
  EXPECT_NE(run.aggregate.find("\"fabric_shards\""), std::string::npos);
  EXPECT_NE(run.aggregate.find("load_imbalance_mean"), std::string::npos);
  EXPECT_NE(run.aggregate.find("\"shards\": 4"), std::string::npos);
}

}  // namespace
}  // namespace flowsched
