#include "campaign/sweep_spec.h"

#include <gtest/gtest.h>

#include <set>

namespace flowsched {
namespace {

TEST(ParseAxisTest, DoubleListsAndRanges) {
  std::vector<double> vals;
  std::string error;
  ASSERT_TRUE(ParseAxis("0.5,0.75,1.0", vals, &error)) << error;
  EXPECT_EQ(vals, (std::vector<double>{0.5, 0.75, 1.0}));

  vals.clear();
  ASSERT_TRUE(ParseAxis("0.5:1.0:0.1", vals, &error)) << error;
  ASSERT_EQ(vals.size(), 6u);  // 0.5 0.6 0.7 0.8 0.9 1.0 — endpoint included.
  EXPECT_DOUBLE_EQ(vals.front(), 0.5);
  EXPECT_DOUBLE_EQ(vals.back(), 1.0);

  vals.clear();
  ASSERT_TRUE(ParseAxis("0.25, 1:2:0.5", vals, &error)) << error;
  EXPECT_EQ(vals, (std::vector<double>{0.25, 1.0, 1.5, 2.0}));
}

TEST(ParseAxisTest, IntListsAndRanges) {
  std::vector<long long> vals;
  std::string error;
  ASSERT_TRUE(ParseAxis("64,256", vals, &error)) << error;
  EXPECT_EQ(vals, (std::vector<long long>{64, 256}));

  vals.clear();
  ASSERT_TRUE(ParseAxis("3..6,10", vals, &error)) << error;
  EXPECT_EQ(vals, (std::vector<long long>{3, 4, 5, 6, 10}));
}

TEST(ParseAxisTest, RejectsMalformedElements) {
  std::vector<double> dvals;
  std::vector<long long> ivals;
  std::string error;
  EXPECT_FALSE(ParseAxis("0.5,potato", dvals, &error));
  EXPECT_FALSE(ParseAxis("1.0:0.5:0.1", dvals, &error));  // b < a.
  EXPECT_FALSE(ParseAxis("0.5:1.0:0", dvals, &error));    // step = 0.
  EXPECT_FALSE(ParseAxis("6..3", ivals, &error));         // hi < lo.
  EXPECT_FALSE(ParseAxis("", ivals, &error));             // empty.
}

// A range is counted before it expands: one that would take its axis past
// kMaxSweepSize values, or that has a non-finite bound or step, is an
// error instead of an endless loop, an overflow or an allocation failure.
TEST(ParseAxisTest, OversizedAndNonFiniteRangesAreErrors) {
  std::vector<std::uint64_t> seeds;
  std::vector<long long> ports;
  std::vector<double> loads;
  std::string error;
  EXPECT_FALSE(ParseAxis("1..18446744073709551615", seeds, &error));
  EXPECT_NE(error.find("past 1000000 values"), std::string::npos) << error;
  EXPECT_FALSE(ParseAxis("0..18446744073709551615", seeds, &error));
  EXPECT_FALSE(ParseAxis("-9223372036854775808..9223372036854775807", ports,
                         &error));
  // Two ranges that fit alone but not together.
  seeds.clear();
  EXPECT_FALSE(ParseAxis("1..600000,1..600000", seeds, &error));
  for (const char* bad : {"0:inf:1", "0:1:nan", "nan:1:0.5", "-inf:0:1",
                          "inf", "nan", "0:1:1e-300", "-1e308:1e308:1"}) {
    loads.clear();
    EXPECT_FALSE(ParseAxis(bad, loads, &error)) << bad;
  }

  // Ranges ending at their type's maximum stop there.
  ports.clear();
  ASSERT_TRUE(ParseAxis("9223372036854775800..9223372036854775807", ports,
                        &error))
      << error;
  ASSERT_EQ(ports.size(), 8u);
  EXPECT_EQ(ports.back(), 9223372036854775807LL);
  seeds.clear();
  ASSERT_TRUE(ParseAxis("18446744073709551614..18446744073709551615", seeds,
                        &error))
      << error;
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{18446744073709551614ULL,
                                               18446744073709551615ULL}));
  // The limit itself fits.
  seeds.clear();
  ASSERT_TRUE(ParseAxis("1..1000000", seeds, &error)) << error;
  EXPECT_EQ(seeds.size(), kMaxSweepSize);
  EXPECT_FALSE(ParseAxis("7", seeds, &error));  // A full axis takes no more.
  seeds.clear();
  EXPECT_FALSE(ParseAxis("0..1000000", seeds, &error));
}

TEST(ParseSweepSpecTest, RangeErrorsNameTheirLine) {
  SweepSpec spec;
  std::string error;
  EXPECT_FALSE(ParseSweepSpec("name=x\nseeds=1..18446744073709551615\n",
                              spec, &error));
  EXPECT_EQ(error.rfind("line 2: seeds: \"1..", 0), 0u) << error;
  EXPECT_FALSE(ParseSweepSpec("name=x\n\nloads=0:inf:1\n", spec, &error));
  EXPECT_EQ(error, "line 3: loads: axis element \"0:inf:1\" is neither a "
                   "finite number nor a range");
  EXPECT_FALSE(ParseSweepSpec("trials=99999999999\n", spec, &error));
  EXPECT_EQ(error.rfind("line 1: trials: ", 0), 0u) << error;
}

TEST(ParseSweepSpecTest, TextFormat) {
  const std::string text =
      "# load sweep over two port counts\n"
      "name=loadsweep\n"
      "solvers=online.fifo, online.srpt\n"
      "instances=poisson:ports={ports},load={load},rounds=50,seed={seed}\n"
      "loads=0.5,1.0\n"
      "ports=16,32\n"
      "seeds=1..3\n"
      "trials=2\n"
      "base_seed=99\n"
      "param=validate=0\n";
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec(text, spec, &error)) << error;
  EXPECT_EQ(spec.name, "loadsweep");
  EXPECT_EQ(spec.solvers,
            (std::vector<std::string>{"online.fifo", "online.srpt"}));
  ASSERT_EQ(spec.instances.size(), 1u);
  EXPECT_EQ(spec.loads, (std::vector<double>{0.5, 1.0}));
  EXPECT_EQ(spec.ports, (std::vector<long long>{16, 32}));
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(spec.trials, 2);
  EXPECT_EQ(spec.base_seed, 99u);
  EXPECT_EQ(spec.params.at("validate"), "0");
}

TEST(ParseSweepSpecTest, ErrorsCarryContext) {
  SweepSpec spec;
  std::string error;
  EXPECT_FALSE(ParseSweepSpec("solvers=a\nbogus_key=1\n", spec, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("bogus_key"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(ParseSweepSpec("trials=zero\n", spec, &error));
  EXPECT_NE(error.find("trials"), std::string::npos) << error;

  // One grammar: a JSON object is a malformed line.
  error.clear();
  EXPECT_FALSE(ParseSweepSpec("\n{\"name\": \"j\"}\n", spec, &error));
  EXPECT_EQ(error, "line 2: expected key=value, got \"{\"name\": \"j\"}\"");
}

SweepSpec GridSpec() {
  SweepSpec spec;
  spec.solvers = {"online.fifo", "online.srpt"};
  spec.instances = {"poisson:ports={ports},load={load},rounds=20,seed={seed}"};
  spec.loads = {0.5, 1.0};
  spec.ports = {8, 16};
  spec.seeds = {1, 2};
  spec.trials = 2;
  spec.base_seed = 7;
  return spec;
}

// The task count (cells x seeds x trials) is checked before any cell or
// task is built.
TEST(ExpandSweepTest, RejectsGridsOverTheTaskLimit) {
  SweepSpec spec = GridSpec();  // 2 solvers x 2 loads x 2 ports = 8 cells.
  spec.seeds.clear();
  std::string error;
  ASSERT_TRUE(ParseAxis("1..1000", spec.seeds, &error)) << error;
  // 8 x 1000 x 125 would be the limit itself.
  spec.trials = 126;
  SweepPlan plan;
  EXPECT_FALSE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error));
  EXPECT_EQ(error, "sweep expands to more than 1000000 tasks "
                   "(cells x seeds x trials)");
  EXPECT_TRUE(plan.tasks.empty());
  spec.trials = 2147483647;
  EXPECT_FALSE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error));
}

TEST(ExpandSweepTest, EnumeratesTheFullCrossProduct) {
  SweepPlan plan;
  std::string error;
  ASSERT_TRUE(ExpandSweep(GridSpec(), SolverRegistry::Global(), plan, &error))
      << error;
  // Cells: 1 template x 2 loads x 2 ports x 2 solvers = 8.
  EXPECT_EQ(plan.cells.size(), 8u);
  // Tasks: cells x 2 seeds x 2 trials = 32.
  EXPECT_EQ(plan.tasks.size(), 32u);
  // Instances dedup across solvers and trials: 2 loads x 2 ports x 2 seeds.
  EXPECT_EQ(plan.unique_instances.size(), 8u);
  // Every task's spec is fully substituted and seeds are all distinct.
  std::set<std::uint64_t> solver_seeds;
  for (const SweepTask& task : plan.tasks) {
    EXPECT_EQ(task.instance_spec.find('{'), std::string::npos)
        << task.instance_spec;
    solver_seeds.insert(task.solver_seed);
  }
  EXPECT_EQ(solver_seeds.size(), plan.tasks.size());
}

TEST(ExpandSweepTest, SeedsAreAFunctionOfCoordinatesOnly) {
  SweepPlan a, b;
  std::string error;
  ASSERT_TRUE(ExpandSweep(GridSpec(), SolverRegistry::Global(), a, &error));
  ASSERT_TRUE(ExpandSweep(GridSpec(), SolverRegistry::Global(), b, &error));
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].solver_seed, b.tasks[i].solver_seed);
    EXPECT_EQ(a.tasks[i].instance_spec, b.tasks[i].instance_spec);
  }
  // A different base seed re-seeds every task.
  SweepSpec shifted = GridSpec();
  shifted.base_seed = 8;
  SweepPlan c;
  ASSERT_TRUE(ExpandSweep(shifted, SolverRegistry::Global(), c, &error));
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_NE(a.tasks[i].solver_seed, c.tasks[i].solver_seed);
  }
}

TEST(ExpandSweepTest, ExpandsSolverGlobs) {
  SweepSpec spec = GridSpec();
  spec.solvers = {"online.*"};
  SweepPlan plan;
  std::string error;
  ASSERT_TRUE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error))
      << error;
  const std::size_t num_online =
      SolverRegistry::Global().NamesMatching("online.*").size();
  EXPECT_EQ(plan.cells.size(), 4u * num_online);
}

TEST(ExpandSweepTest, TrialPlaceholderSubstitutesPerTrial) {
  SweepSpec spec;
  spec.solvers = {"online.fifo"};
  // Trace-driven shape: one (virtual) file per trial; no axes, no {seed}.
  spec.instances = {"traces/day{trial}.csv"};
  spec.trials = 3;
  SweepPlan plan;
  std::string error;
  ASSERT_TRUE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error))
      << error;
  ASSERT_EQ(plan.tasks.size(), 3u);
  EXPECT_EQ(plan.tasks[0].instance_spec, "traces/day0.csv");
  EXPECT_EQ(plan.tasks[1].instance_spec, "traces/day1.csv");
  EXPECT_EQ(plan.tasks[2].instance_spec, "traces/day2.csv");
  // Distinct per-trial specs materialize distinct instance slots.
  EXPECT_EQ(plan.unique_instances.size(), 3u);
  // The cell identity keeps the placeholder: all trials aggregate together.
  EXPECT_EQ(plan.cells.size(), 1u);
  EXPECT_EQ(plan.cells[0].instance_family, "traces/day{trial}.csv");
}

TEST(ExpandSweepTest, TrialPlaceholderComposesWithAxesAndSeeds) {
  SweepSpec spec = GridSpec();
  spec.instances = {
      "poisson:ports={ports},load={load},rounds=20,seed={seed}{trial}"};
  SweepPlan plan;
  std::string error;
  ASSERT_TRUE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error))
      << error;
  for (const SweepTask& task : plan.tasks) {
    EXPECT_EQ(task.instance_spec.find('{'), std::string::npos)
        << task.instance_spec;
  }
  // seed={seed}{trial} concatenates: seed 1 trial 1 => "11", distinct from
  // seed 11 trial 0 only through the seed axis (not used here) — the point
  // is purely that both placeholders substitute.
  EXPECT_EQ(plan.tasks[1].instance_spec.find("{trial}"), std::string::npos);
}

TEST(ExpandSweepTest, RejectsAxisPlaceholderMismatches) {
  SweepPlan plan;
  std::string error;

  // Placeholder without an axis.
  SweepSpec spec = GridSpec();
  spec.loads.clear();
  EXPECT_FALSE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error));
  EXPECT_NE(error.find("{load}"), std::string::npos) << error;

  // Axis without a placeholder.
  spec = GridSpec();
  spec.instances = {"poisson:ports={ports},rounds=20,seed={seed}"};
  EXPECT_FALSE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error));
  EXPECT_NE(error.find("{load}"), std::string::npos) << error;

  // Multiple seeds but no {seed} reference would silently duplicate runs.
  spec = GridSpec();
  spec.instances = {"poisson:ports={ports},load={load},rounds=20"};
  EXPECT_FALSE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error));
  EXPECT_NE(error.find("{seed}"), std::string::npos) << error;

  // ... and the check is per-template: one conforming template must not
  // excuse another that would rerun a fixed instance per seed.
  spec = GridSpec();
  spec.instances.push_back("poisson:ports={ports},load={load},rounds=20");
  EXPECT_FALSE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error));
  EXPECT_NE(error.find("{seed}"), std::string::npos) << error;

  // A single seed with a seedless template is legitimate (fixed traces).
  spec = GridSpec();
  spec.instances = {"poisson:ports={ports},load={load},rounds=20"};
  spec.seeds = {1};
  EXPECT_TRUE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error))
      << error;

  // Unknown solver pattern.
  spec = GridSpec();
  spec.solvers = {"offline.*"};
  EXPECT_FALSE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error));
  EXPECT_NE(error.find("offline.*"), std::string::npos) << error;
}

// Regression: unknown top-level spec keys must be parse errors naming the
// key, never silently dropped.
TEST(ParseSweepSpecTest, UnknownKeysAreNamedErrors) {
  SweepSpec spec;
  std::string error;
  EXPECT_FALSE(ParseSweepSpec(
      "solvers=online.fifo\ninstances=fig4b\nbogus_key=3\n", spec, &error));
  EXPECT_NE(error.find("bogus_key"), std::string::npos) << error;
}

TEST(ExpandSweepTest, ShardsAxisSubstitutesIntoFabricTemplates) {
  SweepSpec spec;
  spec.solvers = {"fabric.sebf"};
  spec.instances = {
      "fabric:shards={shards},partition=block,"
      "poisson:ports=8,load=1.0,rounds=10,seed={seed}"};
  spec.shards = {1, 2, 4};
  spec.seeds = {1};
  SweepPlan plan;
  std::string error;
  ASSERT_TRUE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error))
      << error;
  ASSERT_EQ(plan.cells.size(), 3u);
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    ASSERT_TRUE(plan.cells[i].shards.has_value());
    EXPECT_EQ(*plan.cells[i].shards, spec.shards[i]);
    EXPECT_NE(plan.cells[i].instance_family.find(
                  "shards=" + std::to_string(spec.shards[i])),
              std::string::npos);
  }

  // The axis obeys the same agreement rule as the others.
  spec.instances = {"poisson:ports=8,load=1.0,rounds=10,seed={seed}"};
  EXPECT_FALSE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error));
  EXPECT_NE(error.find("{shards}"), std::string::npos) << error;
}

TEST(ExpandSweepTest, DistAxisSubstitutesIntoCdfTemplates) {
  SweepSpec spec;
  spec.solvers = {"online.srpt"};
  spec.instances = {"cdf:dist={dist},ports=16,load=0.9,rounds=10,seed={seed}"};
  spec.dists = {"websearch", "fbhdp", "alistorage"};
  spec.seeds = {1};
  SweepPlan plan;
  std::string error;
  ASSERT_TRUE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error))
      << error;
  ASSERT_EQ(plan.cells.size(), 3u);
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    ASSERT_TRUE(plan.cells[i].dist.has_value());
    EXPECT_EQ(*plan.cells[i].dist, spec.dists[i]);
    EXPECT_NE(
        plan.cells[i].instance_family.find("dist=" + spec.dists[i]),
        std::string::npos);
  }

  // The axis obeys the same agreement rule as the others, both directions.
  spec.instances = {"cdf:dist=websearch,ports=16,load=0.9,seed={seed}"};
  EXPECT_FALSE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error));
  EXPECT_NE(error.find("{dist}"), std::string::npos) << error;
  spec.instances = {"cdf:dist={dist},ports=16,load=0.9,seed={seed}"};
  spec.dists.clear();
  EXPECT_FALSE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error));
  EXPECT_NE(error.find("{dist}"), std::string::npos) << error;
}

TEST(ParseSweepSpecTest, DistsAxisKeepsNamesVerbatim) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec(
      "solvers=online.srpt\n"
      "instances=cdf:dist={dist},ports=16,load=0.9,seed={seed}\n"
      "dists=websearch,fbhdp\n",
      spec, &error))
      << error;
  ASSERT_EQ(spec.dists.size(), 2u);
  EXPECT_EQ(spec.dists[0], "websearch");
  EXPECT_EQ(spec.dists[1], "fbhdp");
}

// The silent-typo regression (ISSUE 5): unknown keys inside a generator
// template — the fabric wrapper and the inner spec included — fail the
// expansion with the key named, before any runner side effects.
TEST(ExpandSweepTest, UnknownGeneratorTemplateKeysFailExpansion) {
  SweepSpec spec;
  spec.solvers = {"online.fifo"};
  spec.seeds = {1};
  SweepPlan plan;
  std::string error;

  spec.instances = {"poisson:ports=8,load=1.0,rounds=10,bogus=7,seed={seed}"};
  EXPECT_FALSE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;

  spec.instances = {
      "fabric:shards=2,pods=3,poisson:ports=8,load=1.0,rounds=10,"
      "seed={seed}"};
  EXPECT_FALSE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error));
  EXPECT_NE(error.find("pods"), std::string::npos) << error;

  spec.instances = {
      "fabric:shards=2,poisson:ports=8,load=1.0,rounds=10,bogus=7,"
      "seed={seed}"};
  EXPECT_FALSE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;

  // A typo'd generator NAME is caught at expansion time too.
  spec.instances = {"possion:ports=8,load=1.0,rounds=10,seed={seed}"};
  EXPECT_FALSE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error));
  EXPECT_NE(error.find("possion"), std::string::npos) << error;

  // File paths stay load-time concerns: expansion does not touch disk.
  spec.instances = {"no/such/file_{seed}.csv"};
  EXPECT_TRUE(ExpandSweep(spec, SolverRegistry::Global(), plan, &error))
      << error;
}

}  // namespace
}  // namespace flowsched
