#include "core/mrt_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/exact.h"
#include "util/rng.h"
#include "workload/adversarial.h"
#include "workload/patterns.h"
#include "workload/poisson.h"

namespace flowsched {
namespace {

TEST(FifoGreedyTest, ValidAndDrains) {
  PoissonConfig cfg;
  cfg.num_inputs = cfg.num_outputs = 5;
  cfg.mean_arrivals_per_round = 6.0;
  cfg.num_rounds = 4;
  cfg.seed = 61;
  const Instance instance = GeneratePoisson(cfg);
  const Schedule s = FifoGreedySchedule(instance);
  EXPECT_FALSE(s.ValidationError(instance).has_value());
}

TEST(FifoGreedyTest, HandlesReleaseGaps) {
  Instance instance(SwitchSpec::Uniform(2, 2), {});
  instance.AddFlow(0, 0, 1, 0);
  instance.AddFlow(1, 1, 1, 50);
  const Schedule s = FifoGreedySchedule(instance);
  EXPECT_EQ(s.round_of(0), 0);
  EXPECT_EQ(s.round_of(1), 50);
}

TEST(MrtSchedulerTest, IncastRhoEqualsFanIn) {
  Instance instance(SwitchSpec::Uniform(6, 6), {});
  AddIncast(instance, 0, 4, 0);
  const MrtSchedulerResult r = MinimizeMaxResponse(instance);
  EXPECT_EQ(r.rho_lp, 4);
  EXPECT_LE(r.metrics.max_response, 4.0);
  EXPECT_LE(r.rounding_report.max_violation, 1);  // 2*dmax-1 with dmax=1.
}

TEST(MrtSchedulerTest, Fig4bRhoLpMatchesExact) {
  const Instance instance = Fig4bInstance();
  const MrtSchedulerResult r = MinimizeMaxResponse(instance);
  const auto exact = ExactMinMaxResponse(instance, 6);
  ASSERT_TRUE(exact.has_value());
  EXPECT_LE(r.rho_lp, *exact);  // LP relaxation can only be smaller.
  EXPECT_GE(r.rho_lp, 1);
}

TEST(MrtSchedulerTest, EmptyInstance) {
  Instance instance(SwitchSpec::Uniform(1, 1), {});
  const MrtSchedulerResult r = MinimizeMaxResponse(instance);
  EXPECT_EQ(r.rho_lp, 0);
}

class MrtSchedulerPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(MrtSchedulerPropertyTest, BoundsSandwichExactOptimum) {
  const auto [load, seed] = GetParam();
  PoissonConfig cfg;
  cfg.num_inputs = cfg.num_outputs = 3;
  cfg.mean_arrivals_per_round = load * 3;
  cfg.num_rounds = 3;
  cfg.seed = seed;
  const Instance instance = GeneratePoisson(cfg);
  if (instance.num_flows() == 0 || instance.num_flows() > 12) GTEST_SKIP();
  const MrtSchedulerResult r = MinimizeMaxResponse(instance);
  const auto exact = ExactMinMaxResponse(instance, instance.SafeHorizon());
  ASSERT_TRUE(exact.has_value());
  // rho_lp <= exact optimum (LP is a relaxation); the rounded schedule
  // meets rho_lp with augmented ports.
  EXPECT_LE(r.rho_lp, *exact);
  EXPECT_LE(r.metrics.max_response, static_cast<double>(r.rho_lp));
  EXPECT_LE(r.rounding_report.max_violation,
            2 * std::max<Capacity>(instance.MaxDemand(), 1) - 1);
  // The heuristic upper bound really is an upper bound for the LP search.
  EXPECT_GE(r.heuristic_upper_bound, r.rho_lp);
}

INSTANTIATE_TEST_SUITE_P(
    Loads, MrtSchedulerPropertyTest,
    ::testing::Combine(::testing::Values(0.5, 1.0, 1.5),
                       ::testing::Values(71u, 72u, 73u)));

TEST(MrtSchedulerTest, GeneralDemandSweep) {
  PoissonConfig cfg;
  cfg.num_inputs = cfg.num_outputs = 4;
  cfg.port_capacity = 8;
  cfg.max_demand = 4;
  cfg.mean_arrivals_per_round = 8.0;
  cfg.num_rounds = 4;
  cfg.seed = 81;
  const Instance instance = GeneratePoisson(cfg);
  const MrtSchedulerResult r = MinimizeMaxResponse(instance);
  EXPECT_GE(r.rho_lp, 1);
  EXPECT_LE(r.metrics.max_response, static_cast<double>(r.rho_lp));
  EXPECT_LE(r.rounding_report.max_violation, 2 * instance.MaxDemand() - 1);
}

// Theorem 3 as properties over random general-demand instances: 2-5
// ports of capacity 1-3, demands up to 1-4, 2-6 rounds of Poisson arrivals
// at 0.5-2 flows per port and round.
Instance RandomGeneralDemandInstance(std::uint64_t seed) {
  Rng rng(seed);
  PoissonConfig cfg;
  const int ports = rng.UniformInt(2, 5);
  cfg.num_inputs = cfg.num_outputs = ports;
  cfg.port_capacity = rng.UniformInt(1, 3);
  cfg.max_demand = rng.UniformInt(1, 4);
  cfg.mean_arrivals_per_round = (0.5 + 0.5 * rng.UniformInt(0, 3)) * ports;
  cfg.num_rounds = rng.UniformInt(2, 6);
  cfg.seed = seed;
  return GeneratePoisson(cfg);
}

Capacity TheoremBound(const Instance& instance) {
  return 2 * std::max<Capacity>(instance.MaxDemand(), 1) - 1;
}

TEST(MrtSchedulerTest, TheoremThreeHoldsOnRandomGeneralDemands) {
  // The default integrality tolerance, and a loose one that counts any
  // x >= 0.1 as integral: a value fixed without the budget check would
  // break the bound there.
  for (const double integrality_tol : {GroupRoundingOptions().integrality_tol,
                                       0.9}) {
    SCOPED_TRACE(integrality_tol);
    MrtSchedulerOptions options;
    options.rounding.integrality_tol = integrality_tol;
    int rounded_by_lp = 0;
    for (std::uint64_t seed = 9000; seed < 9300; ++seed) {
      const Instance instance = RandomGeneralDemandInstance(seed);
      if (instance.num_flows() == 0) continue;
      const MrtSchedulerResult r = MinimizeMaxResponse(instance, options);
      const GroupRoundingReport& rep = r.rounding_report;
      EXPECT_LE(rep.max_violation, TheoremBound(instance)) << "seed " << seed;
      EXPECT_EQ(rep.hard_drops, 0) << "seed " << seed;
      EXPECT_LE(r.metrics.max_response, static_cast<double>(r.rho_lp))
          << "seed " << seed;
      rounded_by_lp += rep.lp_solves > 0;
      if (integrality_tol > 0.5) continue;
      // At the default tolerance every schedule meets rho* exactly.
      EXPECT_EQ(r.metrics.max_response, static_cast<double>(r.rho_lp))
          << "seed " << seed;
    }
    // Most fractional solutions at rho* are integral already; the rounding
    // LPs must still have run on a fair share. (The loose tolerance fixes
    // every flow before any LP.)
    if (integrality_tol < 0.5) EXPECT_GE(rounded_by_lp, 30);
  }
}

TEST(MrtSchedulerTest, RoundingWithoutLpSolvesForcesEveryFractionalFlow) {
  // max_lp_solves = 0: each flow the fractional solution leaves split is
  // fixed by force_fix_best at its heaviest in-budget round.
  MrtSchedulerOptions options;
  options.rounding.max_lp_solves = 0;
  int forced = 0;
  for (std::uint64_t seed = 9000; seed < 9300; ++seed) {
    const Instance instance = RandomGeneralDemandInstance(seed);
    if (instance.num_flows() == 0) continue;
    const MrtSchedulerResult r = MinimizeMaxResponse(instance, options);
    const GroupRoundingReport& rep = r.rounding_report;
    EXPECT_EQ(rep.lp_solves, 0);
    EXPECT_LE(rep.max_violation, TheoremBound(instance)) << "seed " << seed;
    EXPECT_EQ(rep.hard_drops, 0) << "seed " << seed;
    EXPECT_EQ(r.metrics.max_response, static_cast<double>(r.rho_lp))
        << "seed " << seed;
    forced += rep.forced_fixes > 0;
  }
  EXPECT_GE(forced, 30);
}

TEST(MrtSchedulerTest, VertexThatFixesNothingForcesOneFlowPerSolve) {
  // integrality_tol = -1 counts no value as integral, so every residual LP
  // vertex fixes nothing and the heaviest variable is forced instead: one
  // flow per solve. The schedule stays in its windows and the budget.
  MrtSchedulerOptions options;
  options.rounding.integrality_tol = -1.0;
  for (std::uint64_t seed = 9000; seed < 9050; ++seed) {
    const Instance instance = RandomGeneralDemandInstance(seed);
    if (instance.num_flows() == 0) continue;
    const MrtSchedulerResult r = MinimizeMaxResponse(instance, options);
    const GroupRoundingReport& rep = r.rounding_report;
    EXPECT_EQ(rep.forced_fixes, instance.num_flows()) << "seed " << seed;
    EXPECT_EQ(rep.lp_solves, instance.num_flows()) << "seed " << seed;
    EXPECT_LE(rep.max_violation, TheoremBound(instance)) << "seed " << seed;
    EXPECT_EQ(rep.hard_drops, 0) << "seed " << seed;
    EXPECT_LE(r.metrics.max_response, static_cast<double>(r.rho_lp));
  }
}

TEST(DeadlineSchedulerTest, FeasibleDeadlinesRespected) {
  Instance instance(SwitchSpec::Uniform(3, 3), {});
  AddIncast(instance, 0, 3, 0);
  const std::vector<Round> deadlines = {2, 2, 2};  // rho=3 equivalent.
  const auto r = ScheduleWithDeadlines(instance, deadlines);
  ASSERT_TRUE(r.has_value());
  for (const Flow& e : instance.flows()) {
    EXPECT_LE(r->schedule.round_of(e.id), deadlines[e.id]);
  }
}

TEST(DeadlineSchedulerTest, InfeasibleWindowsReported) {
  // Two flows to the same unit port, both restricted to round 0.
  Instance instance(SwitchSpec::Uniform(2, 1), {});
  instance.AddFlow(0, 0, 1, 0);
  instance.AddFlow(1, 0, 1, 0);
  const std::vector<Round> deadlines = {0, 0};
  EXPECT_FALSE(ScheduleWithDeadlines(instance, deadlines).has_value());
}

TEST(DeadlineSchedulerTest, MixedDeadlines) {
  Instance instance(SwitchSpec::Uniform(2, 2), {});
  instance.AddFlow(0, 0, 1, 0);
  instance.AddFlow(0, 1, 1, 0);
  instance.AddFlow(1, 0, 1, 1);
  const std::vector<Round> deadlines = {0, 3, 4};
  const auto r = ScheduleWithDeadlines(instance, deadlines);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->schedule.round_of(0), 0);
  EXPECT_LE(r->schedule.round_of(1), 3);
  EXPECT_GE(r->schedule.round_of(2), 1);
}

}  // namespace
}  // namespace flowsched
