// The contract of the replay solvers (online.*, coflow.*, fabric.*) through
// the public facade: every error path the shared replay body owns, for one
// solver of each family, and the full diagnostics map of one solver per
// family under a script that mixes MIGRATE with a port outage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "api/instance_source.h"
#include "api/registry.h"

namespace flowsched {
namespace {

// Matching-based, so the unit-demand check applies to all three.
constexpr const char* kMatchingSolvers[] = {
    "online.maxweight", "coflow.maxweight", "fabric.maxweight"};

constexpr char kUnitSpec[] =
    "coflow:ports=8,load=0.9,rounds=30,width=3,skew=0.5,seed=4";

Instance MustLoad(const std::string& spec) {
  std::string error;
  const auto instance = LoadInstance(spec, &error);
  EXPECT_TRUE(instance.has_value()) << error;
  return instance.value_or(Instance(SwitchSpec::Uniform(1, 1, 1), {}));
}

bool IsFabric(const std::string& solver) {
  return solver.rfind("fabric.", 0) == 0;
}

// Solves with `params`, adding the shard count fabric solvers need.
SolveReport SolveWith(const std::string& solver, const Instance& instance,
                      std::map<std::string, std::string> params,
                      Round max_rounds = 0) {
  SolveOptions options;
  options.params = std::move(params);
  if (IsFabric(solver) && options.params.count("shards") == 0) {
    options.params["shards"] = "2";
  }
  options.max_rounds = max_rounds;
  return SolverRegistry::Global().Solve(solver, instance, options);
}

void ExpectFailure(const SolveReport& report, const std::string& needle) {
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find(needle), std::string::npos)
      << "error \"" << report.error << "\" lacks \"" << needle << "\"";
}

TEST(ReplayContractTest, MalformedValidateFailsTheSolve) {
  const Instance instance = MustLoad(kUnitSpec);
  for (const char* solver : kMatchingSolvers) {
    SCOPED_TRACE(solver);
    ExpectFailure(SolveWith(solver, instance, {{"validate", "maybe"}}),
                  "parameter validate: unparsable value \"maybe\"");
  }
}

TEST(ReplayContractTest, MaxRoundsBelowTheSafeHorizonFailsTheSolve) {
  const Instance instance = MustLoad(kUnitSpec);
  const std::string want = "max_rounds 3 is below the safe horizon " +
                           std::to_string(instance.SafeHorizon());
  for (const char* solver : kMatchingSolvers) {
    SCOPED_TRACE(solver);
    ExpectFailure(SolveWith(solver, instance, {}, /*max_rounds=*/3), want);
  }
}

TEST(ReplayContractTest, NonUnitDemandsFailMatchingPolicies) {
  const Instance instance =
      MustLoad("poisson:ports=6,load=1.2,rounds=6,seed=3,dmax=3,cap=3");
  ASSERT_GT(instance.MaxDemand(), 1);
  for (const char* solver : kMatchingSolvers) {
    SCOPED_TRACE(solver);
    ExpectFailure(SolveWith(solver, instance, {}),
                  "is matching-based and requires unit demands");
  }
}

TEST(ReplayContractTest, MissingScenarioFileFailsTheSolve) {
  const Instance instance = MustLoad(kUnitSpec);
  for (const char* solver : kMatchingSolvers) {
    SCOPED_TRACE(solver);
    const SolveReport report = SolveWith(
        solver, instance, {{"scenario", "no/such/dir/outage.txt"}});
    ExpectFailure(report, "scenario: ");
    EXPECT_NE(report.error.find("no/such/dir/outage.txt"), std::string::npos)
        << report.error;
  }
}

TEST(ReplayContractTest, BadScenarioLineFailsTheSolveWithItsLine) {
  const Instance instance = MustLoad(kUnitSpec);
  for (const char* solver : kMatchingSolvers) {
    SCOPED_TRACE(solver);
    ExpectFailure(
        SolveWith(solver, instance,
                  {{"scenario", "inline:PORT_DOWN 4 1;PORT_SIDEWAYS 9 1"}}),
        "scenario: line 2");
  }
}

TEST(ReplayContractTest, FabricTopologyErrors) {
  const Instance instance = MustLoad(kUnitSpec);
  ExpectFailure(SolveWith("fabric.maxweight", instance, {{"shards", "0"}}),
                "parameter shards must be >= 1, got 0");
  ExpectFailure(SolveWith("fabric.maxweight", instance, {{"shards", "two"}}),
                "parameter shards: unparsable value \"two\"");
  ExpectFailure(
      SolveWith("fabric.maxweight", instance, {{"partition", "ring"}}),
      "parameter partition must be block or hash, got \"ring\"");
  // No shards param and no fabric: stamp on the instance.
  SolveOptions bare;
  ExpectFailure(
      SolverRegistry::Global().Solve("fabric.maxweight", instance, bare),
      "fabric solvers need a shard count");
}

// One script for every family: MIGRATE re-homes part of host 1's traffic
// onto host 6 from round 5 on, and host 2 is down for rounds 8-14.
constexpr char kScript[] =
    "inline:MIGRATE 5 1 6 0.5;PORT_DOWN 8 2;PORT_UP 15 2";

struct DiagnosticsGolden {
  const char* solver;
  double total_response;
  double allowance_factor;
  Capacity allowance_additive;
  std::map<std::string, double> diagnostics;
};

// Captured from the facade on kUnitSpec with kScript (fabric.sebf with
// shards=2, block partition). MIGRATE's destination adds its capacity (1)
// to every allowance.
const DiagnosticsGolden kScenarioGoldens[] = {
    {"online.srpt",
     1149,
     1.0,
     1,
     {{"avg_port_utilization", 0.62804878048780488},
      {"backlog_surge", 12},
      {"downtime_rounds", 7},
      {"migrated_flows", 12},
      {"peak_backlog", 52},
      {"recovery_drain_rounds", 26},
      {"response_inflation", 1.2489130434782609},
      {"rounds_simulated", 41},
      {"scenario_events", 3}}},
    {"coflow.sebf",
     1212,
     1.0,
     1,
     {{"avg_cct", 6.1259842519685055},
      {"avg_port_utilization", 0.62804878048780488},
      {"avg_slowdown", 5.0918635170603705},
      {"backlog_surge", 12},
      {"downtime_rounds", 7},
      {"max_cct", 32},
      {"max_slowdown", 20},
      {"migrated_flows", 12},
      {"num_coflows", 127},
      {"num_tagged_coflows", 127},
      {"p50_cct", 5},
      {"p95_cct", 13},
      {"p99_cct", 27},
      {"peak_backlog", 54},
      {"recovery_drain_rounds", 26},
      {"response_inflation", 1.2757894736842106},
      {"rounds_simulated", 41},
      {"scenario_events", 3},
      {"total_cct", 778}}},
    {"fabric.sebf",
     875,
     2.0,
     1,
     {{"avg_cct", 4.724409448818899},
      {"avg_port_utilization", 0.52665441176470584},
      {"avg_slowdown", 3.9763779527559056},
      {"backlog_surge", 7},
      {"cross_shard_flows", 101},
      {"downtime_rounds", 7},
      {"load_imbalance", 1.1359223300970873},
      {"max_cct", 33},
      {"max_slowdown", 13},
      {"migrated_flows", 12},
      {"num_coflows", 127},
      {"num_tagged_coflows", 127},
      {"p50_cct", 3},
      {"p95_cct", 10},
      {"p99_cct", 26},
      {"peak_backlog", 26},
      {"recovery_drain_rounds", 24},
      {"response_inflation", 1.3197586726998491},
      {"rounds_simulated", 39},
      {"scenario_events", 3},
      {"shards", 2},
      {"split_coflows", 37},
      {"total_cct", 600}}},
};

std::string Render(const std::map<std::string, double>& diagnostics) {
  std::string out;
  for (const auto& [key, value] : diagnostics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += "{\"" + key + "\", " + buf + "},\n";
  }
  return out;
}

TEST(ReplayContractTest, ScenarioDiagnosticsMapsArePinned) {
  const Instance instance = MustLoad(kUnitSpec);
  for (const DiagnosticsGolden& golden : kScenarioGoldens) {
    SCOPED_TRACE(golden.solver);
    const SolveReport report =
        SolveWith(golden.solver, instance, {{"scenario", kScript}});
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.metrics.total_response, golden.total_response);
    EXPECT_EQ(report.allowance.factor, golden.allowance_factor);
    EXPECT_EQ(report.allowance.additive, golden.allowance_additive);
    std::map<std::string, double> got = report.diagnostics;
    EXPECT_EQ(got.size(), golden.diagnostics.size()) << Render(got);
    for (const auto& [key, value] : golden.diagnostics) {
      if (got.count(key) == 0) {
        ADD_FAILURE() << "missing " << key;
        continue;
      }
      EXPECT_DOUBLE_EQ(got.at(key), value) << key;
    }
  }
}

// Every diagnostic a replay solver emits is one it documents, with and
// without a scenario, and every one it documents is emitted by one of
// those runs or, where the solver takes it, by a record_backlog=1 run.
TEST(ReplayContractTest, EveryEmittedDiagnosticIsDocumented) {
  const Instance instance = MustLoad(kUnitSpec);
  const SolverRegistry& registry = SolverRegistry::Global();
  int solvers = 0;
  for (const char* family : {"online.*", "coflow.*", "fabric.*"}) {
    for (const std::string& name : registry.NamesMatching(family)) {
      SCOPED_TRACE(name);
      ++solvers;
      const auto solver = registry.Create(name);
      ASSERT_NE(solver, nullptr);
      std::map<std::string, std::string> documented;
      for (const SolverKeyDoc& doc : solver->DiagnosticDocs()) {
        documented[doc.key] = doc.doc;
      }
      std::vector<std::map<std::string, std::string>> runs = {
          {}, {{"scenario", kScript}}};
      const auto keys = solver->ParamKeys();
      if (std::find(keys.begin(), keys.end(), "record_backlog") !=
          keys.end()) {
        runs.push_back({{"record_backlog", "1"}});
      }
      std::map<std::string, int> emitted;
      for (const auto& params : runs) {
        const SolveReport report = SolveWith(name, instance, params);
        ASSERT_TRUE(report.ok) << report.error;
        for (const auto& [key, value] : report.diagnostics) {
          EXPECT_EQ(documented.count(key), 1u) << "undocumented " << key;
          ++emitted[key];
        }
      }
      for (const auto& [key, doc] : documented) {
        EXPECT_EQ(emitted.count(key), 1u) << "never emitted " << key;
      }
    }
  }
  EXPECT_EQ(solvers, 18);
}

}  // namespace
}  // namespace flowsched
