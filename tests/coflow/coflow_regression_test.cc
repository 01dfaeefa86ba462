// Golden lock on the coflow subsystem: the CCT metrics each coflow policy
// produces on a fixed generator spec are pinned, and a coflow sweep grid is
// byte-identical regardless of worker count — the same guarantees the
// flow-level stack carries (simulator_regression_test, campaign --jobs
// determinism), extended to the new vertical slice.
#include <gtest/gtest.h>

#include <string>

#include "../campaign/one_grid_campaign.h"
#include "api/instance_source.h"
#include "api/registry.h"

namespace flowsched {
namespace {

constexpr char kSpec[] = "coflow:ports=16,load=1.0,rounds=40,width=6,"
                         "skew=0.7,seed=5";

struct Golden {
  const char* solver;
  double total_response;
  double total_cct;
  double p95_cct;
  double max_cct;
  long long num_coflows;
};

// Captured with:
//   flowsched_cli --instance=<kSpec> --solver=coflow.<p> --diagnostics
// Note the policy signatures: FIFO-of-coflows minimizes the tail (max CCT
// 16) at the cost of the average; SEBF/maxweight drain small groups first.
const Golden kGoldens[] = {
    {"coflow.sebf", 3874, 1721, 17, 31, 257},
    {"coflow.maxweight", 2976, 1385, 17, 32, 257},
    {"coflow.fifo", 3999, 2031, 15, 16, 257},
};

TEST(CoflowRegressionTest, CctMetricsMatchGoldens) {
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
    // Welford accumulation, so equal to the ratio only up to rounding.
    EXPECT_NEAR(report.diagnostics.at("avg_cct"),
                golden.total_cct / golden.num_coflows, 1e-9)
        << golden.solver;
    EXPECT_DOUBLE_EQ(report.diagnostics.at("p95_cct"), golden.p95_cct)
        << golden.solver;
    EXPECT_DOUBLE_EQ(report.diagnostics.at("max_cct"), golden.max_cct)
        << golden.solver;
    EXPECT_EQ(
        static_cast<long long>(report.diagnostics.at("num_coflows")),
        golden.num_coflows)
        << golden.solver;
  }
}

// The acceptance determinism bar: a coflow grid's per-task outcomes —
// including the CCT fields — and its collected aggregate reports are
// byte-identical for any --jobs value.
TEST(CoflowRegressionTest, SweepOutcomesAreIdenticalAcrossJobCounts) {
  SweepSpec spec;
  spec.name = "coflow-regression";
  spec.solvers = {"coflow.*"};
  spec.instances = {
      "coflow:ports={ports},load={load},rounds=30,width=6,skew=0.7,"
      "seed={seed}"};
  spec.loads = {0.8, 1.0};
  spec.ports = {8, 16};
  spec.seeds = {1, 2};
  spec.base_seed = 3;
  spec.params["validate"] = "1";

  const OneGridRun run = ExpectIdenticalAcrossJobCounts(spec);
  bool saw_coflows = false;
  for (const TaskOutcome& o : run.outcomes) {
    saw_coflows = saw_coflows || (o[OutcomeMetricIndex("num_coflows")] > 0 &&
                                  o[OutcomeMetricIndex("avg_cct")] > 0.0);
  }
  EXPECT_TRUE(saw_coflows);
  EXPECT_NE(run.aggregate.find("\"avg_cct\""), std::string::npos);
}

// Coflow solvers accept untagged instances: every flow is a singleton
// group, so num_coflows == num_flows and avg CCT == avg response.
TEST(CoflowRegressionTest, UntaggedInstancesDegradeToSingletons) {
  std::string error;
  const auto instance =
      LoadInstance("poisson:ports=8,load=1.0,rounds=10,seed=2", &error);
  ASSERT_TRUE(instance.has_value()) << error;
  const SolveReport report =
      SolverRegistry::Global().Solve("coflow.sebf", *instance);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(static_cast<int>(report.diagnostics.at("num_coflows")),
            instance->num_flows());
  EXPECT_EQ(static_cast<int>(report.diagnostics.at("num_tagged_coflows")), 0);
  EXPECT_DOUBLE_EQ(report.diagnostics.at("avg_cct"),
                   report.metrics.avg_response);
}

}  // namespace
}  // namespace flowsched
