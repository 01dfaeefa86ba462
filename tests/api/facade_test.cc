// Golden tests: the facade adapters must reproduce the typed APIs exactly —
// same schedule, same bounds, same augmentation — so nothing is lost by
// driving everything through the registry.
#include <gtest/gtest.h>

#include "api/registry.h"
#include "core/art_scheduler.h"
#include "core/exact.h"
#include "core/mrt_scheduler.h"
#include "core/online/simulator.h"
#include "workload/poisson.h"

namespace flowsched {
namespace {

Instance TestInstance(int ports, double load, int rounds, std::uint64_t seed) {
  PoissonConfig cfg;
  cfg.num_inputs = cfg.num_outputs = ports;
  cfg.mean_arrivals_per_round = load * ports;
  cfg.num_rounds = rounds;
  cfg.seed = seed;
  return GeneratePoisson(cfg);
}

TEST(FacadeGoldenTest, MrtTheorem3MatchesMinimizeMaxResponse) {
  const Instance instance = TestInstance(6, 1.0, 6, 11);
  ASSERT_GT(instance.num_flows(), 0);

  const SolveReport facade =
      SolverRegistry::Global().Solve("mrt.theorem3", instance);
  const MrtSchedulerResult direct = MinimizeMaxResponse(instance);

  ASSERT_TRUE(facade.ok) << facade.error;
  EXPECT_EQ(facade.schedule.assignments(), direct.schedule.assignments());
  EXPECT_DOUBLE_EQ(facade.objective, direct.metrics.max_response);
  ASSERT_TRUE(facade.lower_bound.has_value());
  EXPECT_DOUBLE_EQ(*facade.lower_bound, static_cast<double>(direct.rho_lp));
  EXPECT_DOUBLE_EQ(facade.allowance.factor, direct.allowance.factor);
  EXPECT_EQ(facade.allowance.additive, direct.allowance.additive);
  EXPECT_EQ(facade.diagnostics.at("binary_search_probes"),
            direct.binary_search_probes);
  EXPECT_EQ(facade.diagnostics.at("max_violation"),
            static_cast<double>(direct.rounding_report.max_violation));
}

TEST(FacadeGoldenTest, ArtTheorem1MatchesScheduleArtWithAugmentation) {
  const Instance instance = TestInstance(6, 1.0, 6, 12);
  ASSERT_GT(instance.num_flows(), 0);

  SolveOptions options;
  options.params["c"] = "4";
  const SolveReport facade =
      SolverRegistry::Global().Solve("art.theorem1", instance, options);
  ArtSchedulerOptions direct_options;
  direct_options.c = 4;
  const ArtSchedulerResult direct =
      ScheduleArtWithAugmentation(instance, direct_options);

  ASSERT_TRUE(facade.ok) << facade.error;
  EXPECT_EQ(facade.schedule.assignments(), direct.schedule.assignments());
  EXPECT_DOUBLE_EQ(facade.objective, direct.metrics.total_response);
  ASSERT_TRUE(facade.lower_bound.has_value());
  EXPECT_DOUBLE_EQ(*facade.lower_bound,
                   direct.rounding_report.lp0_objective);
  EXPECT_DOUBLE_EQ(facade.allowance.factor, direct.allowance.factor);
  EXPECT_EQ(facade.diagnostics.at("interval_length"), direct.interval_length);
  EXPECT_EQ(facade.diagnostics.at("max_colors"), direct.max_colors);
}

TEST(FacadeGoldenTest, OnlineSolverMatchesSimulate) {
  const Instance instance = TestInstance(8, 1.5, 8, 13);
  ASSERT_GT(instance.num_flows(), 0);

  const SolveReport facade =
      SolverRegistry::Global().Solve("online.maxweight", instance);
  auto policy = MakePolicy("maxweight", /*seed=*/1);
  const SimulationResult direct = Simulate(instance, *policy);

  ASSERT_TRUE(facade.ok) << facade.error;
  // Poisson flows are generated in release order, so realized ids == the
  // instance ids and the schedules must agree element-wise.
  EXPECT_EQ(facade.schedule.assignments(), direct.schedule.assignments());
  EXPECT_DOUBLE_EQ(facade.metrics.total_response,
                   direct.metrics.total_response);
  EXPECT_EQ(facade.diagnostics.at("rounds_simulated"), direct.rounds);
}

TEST(FacadeGoldenTest, OnlineSolverRemapsOutOfOrderReleases) {
  // Ids deliberately NOT in release order: the simulator replays sorted by
  // release and renumbers, so the adapter must map rounds back to ids.
  Instance instance(SwitchSpec::Uniform(2, 2, 1), {});
  instance.AddFlow(0, 0, 1, 5);  // id 0, released last.
  instance.AddFlow(0, 1, 1, 0);  // id 1, released first.
  instance.AddFlow(1, 0, 1, 2);  // id 2.

  const SolveReport facade =
      SolverRegistry::Global().Solve("online.fifo", instance);
  ASSERT_TRUE(facade.ok) << facade.error;
  // No conflicts: every flow runs the round it is released.
  EXPECT_EQ(facade.schedule.round_of(0), 5);
  EXPECT_EQ(facade.schedule.round_of(1), 0);
  EXPECT_EQ(facade.schedule.round_of(2), 2);
}

TEST(FacadeGoldenTest, OnlineSolversReplayReversedReleaseBlocksLikeSorted) {
  // The same flows with the release blocks in reverse order, each block's
  // flows in their original order: the replay sorts them back into the
  // sorted twin's arrival order, so every flow must run in the same round.
  const Instance sorted = TestInstance(8, 1.2, 12, 29);
  ASSERT_GT(sorted.num_flows(), 0);
  std::vector<FlowId> twin_of;  // Reversed id -> sorted id.
  Instance reversed(sorted.sw(), {});
  for (Round r = sorted.flows().back().release; r >= 0; --r) {
    for (const Flow& e : sorted.flows()) {
      if (e.release != r) continue;
      reversed.AddFlow(e.src, e.dst, e.demand, e.release, e.coflow);
      twin_of.push_back(e.id);
    }
  }
  ASSERT_EQ(reversed.num_flows(), sorted.num_flows());
  ASSERT_NE(reversed.flows().front().release, sorted.flows().front().release);
  for (const char* solver : {"online.srpt", "online.maxweight"}) {
    SCOPED_TRACE(solver);
    const SolveReport a = SolverRegistry::Global().Solve(solver, sorted);
    const SolveReport b = SolverRegistry::Global().Solve(solver, reversed);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_FALSE(b.schedule.ValidationError(reversed).has_value());
    for (FlowId e = 0; e < reversed.num_flows(); ++e) {
      ASSERT_EQ(b.schedule.round_of(e), a.schedule.round_of(twin_of[e]))
          << "flow " << e;
    }
    EXPECT_EQ(b.metrics.total_response, a.metrics.total_response);
    EXPECT_EQ(b.metrics.p99_response, a.metrics.p99_response);
  }
}

TEST(FacadeGoldenTest, MrtExactMatchesExactMinMaxResponse) {
  const Instance instance = TestInstance(3, 1.0, 3, 14);
  ASSERT_GT(instance.num_flows(), 0);
  ASSERT_LE(instance.num_flows(), 20);

  const SolveReport facade =
      SolverRegistry::Global().Solve("mrt.exact", instance);
  const auto direct =
      ExactMinMaxResponse(instance, instance.SafeHorizon());

  ASSERT_TRUE(facade.ok) << facade.error;
  ASSERT_TRUE(direct.has_value());
  EXPECT_DOUBLE_EQ(facade.objective, static_cast<double>(*direct));
  EXPECT_DOUBLE_EQ(*facade.lower_bound, static_cast<double>(*direct));
}

TEST(FacadeGoldenTest, ArtExactMatchesExactMinTotalResponse) {
  const Instance instance = TestInstance(3, 1.0, 3, 15);
  ASSERT_GT(instance.num_flows(), 0);
  ASSERT_LE(instance.num_flows(), 20);

  const SolveReport facade =
      SolverRegistry::Global().Solve("art.exact", instance);
  const ExactArtResult direct = ExactMinTotalResponse(instance);

  ASSERT_TRUE(facade.ok) << facade.error;
  EXPECT_DOUBLE_EQ(facade.objective, direct.total_response);
  EXPECT_DOUBLE_EQ(*facade.lower_bound, direct.total_response);
}

TEST(FacadeGoldenTest, DeadlineSolverMatchesScheduleWithDeadlines) {
  const Instance instance = TestInstance(4, 1.0, 4, 16);
  ASSERT_GT(instance.num_flows(), 0);
  std::vector<Round> deadlines;
  std::string joined;
  for (const Flow& e : instance.flows()) {
    deadlines.push_back(e.release + 6);
    if (!joined.empty()) joined += ",";
    joined += std::to_string(e.release + 6);
  }

  SolveOptions options;
  options.params["deadlines"] = joined;
  const SolveReport facade =
      SolverRegistry::Global().Solve("mrt.deadline", instance, options);
  const auto direct = ScheduleWithDeadlines(instance, deadlines);

  ASSERT_TRUE(facade.ok) << facade.error;
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(facade.schedule.assignments(),
            direct->schedule.assignments());
  // Deadlines honored.
  for (const Flow& e : instance.flows()) {
    EXPECT_LE(facade.schedule.round_of(e.id), deadlines[e.id]);
  }
}

TEST(FacadeGoldenTest, DeadlineSlackParameterBoundsEveryResponse) {
  const Instance instance = TestInstance(4, 0.75, 4, 17);
  ASSERT_GT(instance.num_flows(), 0);
  SolveOptions options;
  options.params["deadline_slack"] = "8";
  const SolveReport facade =
      SolverRegistry::Global().Solve("mrt.deadline", instance, options);
  ASSERT_TRUE(facade.ok) << facade.error;
  for (const Flow& e : instance.flows()) {
    EXPECT_LE(facade.schedule.round_of(e.id), e.release + 8);
  }
}

}  // namespace
}  // namespace flowsched
