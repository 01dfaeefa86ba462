// Golden lock on the coflow subsystem: the CCT metrics each coflow policy
// produces on a fixed generator spec are pinned, and a coflow sweep grid is
// byte-identical regardless of worker count — the same guarantees the
// flow-level stack carries (simulator_regression_test, experiment_runner
// determinism), extended to the new vertical slice.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "api/instance_source.h"
#include "api/registry.h"
#include "exp/aggregator.h"
#include "exp/experiment_runner.h"

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

// The acceptance determinism bar: a coflow sweep's per-task outcomes —
// including the CCT fields — and its timing-stripped aggregate reports are
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

  SweepRun run1, run8;
  std::string error;
  RunnerOptions opt1;
  opt1.jobs = 1;
  ASSERT_TRUE(RunSweep(spec, opt1, run1, &error)) << error;
  RunnerOptions opt8;
  opt8.jobs = 8;
  ASSERT_TRUE(RunSweep(spec, opt8, run8, &error)) << error;

  EXPECT_EQ(run1.failures, 0);
  ASSERT_EQ(run1.outcomes.size(), run8.outcomes.size());
  bool saw_coflows = false;
  for (std::size_t i = 0; i < run1.outcomes.size(); ++i) {
    const TaskOutcome& a = run1.outcomes[i];
    const TaskOutcome& b = run8.outcomes[i];
    SCOPED_TRACE("task " + std::to_string(i));
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.total_response, b.total_response);
    EXPECT_EQ(a.num_coflows, b.num_coflows);
    EXPECT_EQ(a.avg_cct, b.avg_cct);
    EXPECT_EQ(a.p95_cct, b.p95_cct);
    EXPECT_EQ(a.max_cct, b.max_cct);
    EXPECT_EQ(a.avg_slowdown, b.avg_slowdown);
    saw_coflows = saw_coflows || a.num_coflows > 0;
  }
  EXPECT_TRUE(saw_coflows);

  auto report = [&](const SweepRun& run) {
    Aggregator agg(run.plan);
    agg.AddRun(run);
    std::ostringstream json, csv;
    agg.WriteJson(json, spec, run.jobs, run.wall_seconds,
                  /*include_timing=*/false);
    agg.WriteCsv(csv, /*include_timing=*/false);
    return json.str() + "\n---\n" + csv.str();
  };
  EXPECT_EQ(report(run1), report(run8));
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
