#include "api/registry.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "api/instance_source.h"
#include "core/online/policy.h"

namespace flowsched {
namespace {

// Small enough for the exact solvers, busy enough to force real conflicts.
Instance SmallInstance() {
  Instance instance(SwitchSpec::Uniform(3, 3, 1), {});
  instance.AddFlow(0, 0, 1, 0);
  instance.AddFlow(0, 1, 1, 0);
  instance.AddFlow(1, 0, 1, 0);
  instance.AddFlow(1, 2, 1, 1);
  instance.AddFlow(2, 2, 1, 1);
  instance.AddFlow(2, 1, 1, 3);
  return instance;
}

TEST(SolverRegistryTest, ExposesTheFullSolverSurface) {
  const auto names = SolverRegistry::Global().Names();
  EXPECT_GE(names.size(), 6u);
  for (const char* required :
       {"art.theorem1", "art.exact", "mrt.theorem3", "mrt.exact",
        "mrt.deadline"}) {
    EXPECT_TRUE(std::count(names.begin(), names.end(), required))
        << "missing " << required;
  }
  // Every online policy is wrapped.
  for (const std::string& policy : AllPolicyNames()) {
    EXPECT_TRUE(SolverRegistry::Global().Contains("online." + policy))
        << "missing online." << policy;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(SolverRegistryTest, EveryRegisteredSolverSolvesASmallInstance) {
  const Instance instance = SmallInstance();
  for (const std::string& name : SolverRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    // fabric.* has one required parameter (the shard topology); everything
    // else must solve with defaults alone.
    SolveOptions options;
    if (name.rfind("fabric.", 0) == 0) options.params["shards"] = "2";
    const SolveReport report =
        SolverRegistry::Global().Solve(name, instance, options);
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.solver, name);
    EXPECT_TRUE(report.schedule.AllAssigned());
    // The facade promises schedule validity under the reported allowance
    // and metrics consistent with the schedule.
    EXPECT_EQ(report.schedule.ValidationError(instance, report.allowance),
              std::nullopt);
    const ScheduleMetrics direct = ComputeMetrics(instance, report.schedule);
    EXPECT_DOUBLE_EQ(report.metrics.total_response, direct.total_response);
    EXPECT_DOUBLE_EQ(report.metrics.max_response, direct.max_response);
    const double expected_objective =
        report.objective_name == "max_response" ? direct.max_response
                                                : direct.total_response;
    EXPECT_DOUBLE_EQ(report.objective, expected_objective);
    EXPECT_GE(report.wall_seconds, 0.0);
    if (report.lower_bound.has_value()) {
      EXPECT_LE(*report.lower_bound, report.objective + 1e-9);
    }
  }
}

TEST(SolverRegistryTest, UnknownNameReportsRegisteredSolvers) {
  std::string error;
  EXPECT_EQ(SolverRegistry::Global().Create("no.such.solver", &error),
            nullptr);
  EXPECT_NE(error.find("no.such.solver"), std::string::npos);
  EXPECT_NE(error.find("mrt.theorem3"), std::string::npos);

  const SolveReport report =
      SolverRegistry::Global().Solve("no.such.solver", SmallInstance());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("unknown solver"), std::string::npos);
}

TEST(SolverRegistryTest, UnknownParameterFailsTheSolve) {
  SolveOptions options;
  options.params["bogus_knob"] = "7";
  for (const char* name : {"mrt.theorem3", "art.theorem1", "online.fifo"}) {
    SCOPED_TRACE(name);
    const SolveReport report =
        SolverRegistry::Global().Solve(name, SmallInstance(), options);
    EXPECT_FALSE(report.ok);
    EXPECT_NE(report.error.find("bogus_knob"), std::string::npos);
  }
}

TEST(SolverRegistryTest, MalformedParameterValueFailsTheSolve) {
  SolveOptions options;
  options.params["c"] = "not_a_number";
  const SolveReport report =
      SolverRegistry::Global().Solve("art.theorem1", SmallInstance(), options);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("not_a_number"), std::string::npos);
}

// König is Theorem 1's only edge colouring: no solver takes a `coloring`
// knob, and the facade refuses one like any other unknown key.
TEST(SolverRegistryTest, NoSolverTakesAColoringParameter) {
  for (const std::string& name : SolverRegistry::Global().Names()) {
    const auto keys = SolverRegistry::Global().Create(name)->ParamKeys();
    EXPECT_EQ(std::count(keys.begin(), keys.end(), "coloring"), 0) << name;
  }
  SolveOptions options;
  options.params["coloring"] = "euler";
  const SolveReport r =
      SolverRegistry::Global().Solve("art.theorem1", SmallInstance(), options);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown parameter \"coloring\""), std::string::npos)
      << r.error;
}

// Whether a policy needs unit demands is asked of the built policy
// (RequiresUnitDemands), by the online., coflow. and fabric. adapters
// alike: a matching-based one fails the solve instead of aborting.
TEST(SolverRegistryTest, MatchingBasedPoliciesRejectNonUnitDemands) {
  std::string error;
  const auto instance = LoadInstance(
      "poisson:ports=6,load=1.5,rounds=4,seed=9,dmax=2,cap=4", &error);
  ASSERT_TRUE(instance.has_value()) << error;
  ASSERT_GT(instance->MaxDemand(), 1);
  const auto solve = [&](const std::string& name) {
    SolveOptions options;
    if (name.rfind("fabric.", 0) == 0) options.params["shards"] = "2";
    return SolverRegistry::Global().Solve(name, *instance, options);
  };
  for (const char* name :
       {"online.maxweight", "online.minrtime", "online.maxcard",
        "online.hybrid", "coflow.maxweight", "fabric.maxweight",
        "fabric.minrtime", "fabric.maxcard"}) {
    SCOPED_TRACE(name);
    const SolveReport r = solve(name);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("requires unit demands"), std::string::npos)
        << r.error;
  }
  for (const char* name : {"online.srpt", "online.fifo", "coflow.sebf",
                           "fabric.sebf", "fabric.srpt"}) {
    SCOPED_TRACE(name);
    const SolveReport r = solve(name);
    EXPECT_TRUE(r.ok) << r.error;
  }
}

TEST(SolverRegistryTest, InvalidInstanceIsRejectedUpFront) {
  Instance bad(SwitchSpec::Uniform(2, 2, 1), {});
  bad.AddFlow(0, 7, 1, 0);  // Output port out of range.
  const SolveReport report = SolverRegistry::Global().Solve("online.fifo", bad);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("invalid instance"), std::string::npos);
}

TEST(SolverRegistryTest, ExactSolversGuardAgainstLargeInstances) {
  Instance medium(SwitchSpec::Uniform(8, 8, 1), {});
  for (int i = 0; i < 24; ++i) medium.AddFlow(i % 8, (i * 3) % 8, 1, i / 8);
  for (const char* name : {"art.exact", "mrt.exact"}) {
    SCOPED_TRACE(name);
    const SolveReport report = SolverRegistry::Global().Solve(name, medium);
    EXPECT_FALSE(report.ok);
    EXPECT_NE(report.error.find("max_flows"), std::string::npos);
  }
  // The default guard is a parameter (up to the representation's cap of 30).
  SolveOptions options;
  options.params["max_flows"] = "30";
  EXPECT_TRUE(
      SolverRegistry::Global().Solve("mrt.exact", medium, options).ok);

  // Past the hard cap the failure is a recoverable error, not an abort,
  // regardless of max_flows.
  Instance big(SwitchSpec::Uniform(8, 8, 1), {});
  for (int i = 0; i < 40; ++i) big.AddFlow(i % 8, (i * 3) % 8, 1, 0);
  const SolveReport report =
      SolverRegistry::Global().Solve("mrt.exact", big, options);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("at most 30"), std::string::npos);
}

TEST(SolverRegistryTest, OnlineSeedIsThreadedThroughToThePolicy) {
  Instance instance(SwitchSpec::Uniform(4, 4, 1), {});
  for (int t = 0; t < 6; ++t) {
    for (int i = 0; i < 4; ++i) {
      instance.AddFlow(i, (i + t) % 4, 1, t);
      instance.AddFlow(i, (i + t + 1) % 4, 1, t);
    }
  }
  SolveOptions a;
  a.seed = 1;
  const SolveReport r1 =
      SolverRegistry::Global().Solve("online.random", instance, a);
  const SolveReport r2 =
      SolverRegistry::Global().Solve("online.random", instance, a);
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_EQ(r1.schedule.assignments(), r2.schedule.assignments())
      << "same seed must reproduce the same schedule";
}

TEST(SolverRegistryTest, OnlineMaxRoundsBelowHorizonIsARecoverableError) {
  const Instance instance = SmallInstance();
  SolveOptions options;
  options.max_rounds = 2;  // Below SafeHorizon; would abort the simulator.
  const SolveReport report =
      SolverRegistry::Global().Solve("online.fifo", instance, options);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("safe horizon"), std::string::npos);
}

TEST(SolverRegistryTest, EmptyInstanceSolvesTrivially) {
  const Instance empty(SwitchSpec::Uniform(2, 2, 1), {});
  for (const std::string& name : SolverRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    const SolveReport report = SolverRegistry::Global().Solve(name, empty);
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.metrics.total_response, 0.0);
  }
}

TEST(SolverRegistryTest, CustomRegistriesStartEmpty) {
  SolverRegistry registry;
  EXPECT_TRUE(registry.Names().empty());
  RegisterBuiltinSolvers(registry);
  EXPECT_EQ(registry.Names(), SolverRegistry::Global().Names());
}

TEST(SolverRegistryTest, NamesMatchingExpandsGlobs) {
  const SolverRegistry& registry = SolverRegistry::Global();
  // "online.*" enumerates exactly the online family.
  const auto online = registry.NamesMatching("online.*");
  EXPECT_EQ(online.size(), AllPolicyNames().size());
  for (const std::string& name : online) {
    EXPECT_EQ(name.rfind("online.", 0), 0u) << name;
  }
  EXPECT_TRUE(std::is_sorted(online.begin(), online.end()));
  // Suffix and infix wildcards work too.
  const auto exact = registry.NamesMatching("*.exact");
  EXPECT_EQ(exact, (std::vector<std::string>{"art.exact", "mrt.exact"}));
  // No '*' means exact lookup; misses return empty.
  EXPECT_EQ(registry.NamesMatching("mrt.theorem3"),
            std::vector<std::string>{"mrt.theorem3"});
  EXPECT_TRUE(registry.NamesMatching("nonexistent").empty());
  EXPECT_TRUE(registry.NamesMatching("online.x*").empty());
  // "*" matches everything.
  EXPECT_EQ(registry.NamesMatching("*"), registry.Names());
}

}  // namespace
}  // namespace flowsched
