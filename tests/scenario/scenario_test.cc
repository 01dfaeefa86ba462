// The fault-injection scenario engine (src/scenario/): parser line-number
// errors, runtime clamp/idempotence semantics, graceful degradation in the
// batch simulator (blocked flows stay backlogged, stranded runs truncate
// instead of aborting), and the fabric projection of global host/pod events
// onto shard-local ports.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "api/instance_source.h"
#include "fabric/fabric_partition.h"
#include "fabric/fabric_runner.h"
#include "model/schedule.h"
#include "model/trace_io.h"
#include "core/online/simulator.h"
#include "scenario/scenario.h"
#include "serve/daemon.h"

namespace flowsched {
namespace {

ScenarioScript MustParse(const std::string& text) {
  ScenarioScript script;
  std::string error;
  EXPECT_TRUE(ScenarioScript::ParseText(text, &script, &error)) << error;
  return script;
}

std::string ParseError(const std::string& text) {
  ScenarioScript script;
  std::string error;
  EXPECT_FALSE(ScenarioScript::ParseText(text, &script, &error));
  return error;
}

TEST(ScenarioParseTest, ParsesVerbsCommentsAndCsvSeparators) {
  const ScenarioScript script = MustParse(
      "# outage drill\n"
      "PODS 2\n"
      "\n"
      "PORT_DOWN 10 3   # host 3 dies\n"
      "SET_CAPACITY,5,1,2\n"  // CSV separators are equivalent.
      "POD_UP 20 1\n");
  EXPECT_EQ(script.pods(), 2);
  ASSERT_EQ(script.events().size(), 3u);
  // Events are stable-sorted by round.
  EXPECT_EQ(script.events()[0].kind, ScenarioEvent::Kind::kSetCapacity);
  EXPECT_EQ(script.events()[0].t, 5);
  EXPECT_EQ(script.events()[0].target, 1);
  EXPECT_EQ(script.events()[0].capacity, 2);
  EXPECT_EQ(script.events()[1].kind, ScenarioEvent::Kind::kPortDown);
  EXPECT_EQ(script.events()[2].kind, ScenarioEvent::Kind::kPodUp);
  EXPECT_EQ(script.last_event_round(), 20);
}

TEST(ScenarioParseTest, SameRoundEventsKeepFileOrder) {
  const ScenarioScript script = MustParse(
      "PORT_DOWN 7 2\n"
      "SET_CAPACITY 7 1 1\n"
      "PORT_UP 7 0\n");
  ASSERT_EQ(script.events().size(), 3u);
  EXPECT_EQ(script.events()[0].kind, ScenarioEvent::Kind::kPortDown);
  EXPECT_EQ(script.events()[1].kind, ScenarioEvent::Kind::kSetCapacity);
  EXPECT_EQ(script.events()[2].kind, ScenarioEvent::Kind::kPortUp);
}

TEST(ScenarioParseTest, ErrorsCarryOneBasedLineNumbers) {
  EXPECT_NE(ParseError("PORT_DOWN 1 0\nEXPLODE 2 0\n")
                .find("line 2: unknown scenario verb \"EXPLODE\""),
            std::string::npos);
  EXPECT_NE(ParseError("SET_CAPACITY 5 1\n")
                .find("line 1: SET_CAPACITY wants: SET_CAPACITY <t> <port> "
                      "<cap>"),
            std::string::npos);
  EXPECT_NE(ParseError("PORT_DOWN ten 0\n").find("decimal integers"),
            std::string::npos);
  EXPECT_NE(ParseError("PORT_DOWN -1 0\n").find("round must be in"),
            std::string::npos);
  EXPECT_NE(ParseError("SET_CAPACITY 1 0 -2\n").find("capacity must be in"),
            std::string::npos);
}

TEST(ScenarioParseTest, PodHeaderRules) {
  EXPECT_NE(ParseError("PODS 2\nPODS 3\n").find("line 2: duplicate PODS"),
            std::string::npos);
  EXPECT_NE(ParseError("POD_DOWN 1 0\n")
                .find("line 1: POD_DOWN needs a PODS <k> header"),
            std::string::npos);
  EXPECT_NE(ParseError("PODS 0\n").find("positive integer"),
            std::string::npos);
}

TEST(ScenarioParseTest, LoadScenarioParamForms) {
  ScenarioScript script;
  std::string error;
  // Inline form uses ';' as the line separator.
  ASSERT_TRUE(LoadScenarioParam("inline:PORT_DOWN 3 1;PORT_UP 9 1", &script,
                                &error))
      << error;
  EXPECT_EQ(script.events().size(), 2u);
  // Empty value: empty script, success.
  ASSERT_TRUE(LoadScenarioParam("", &script, &error)) << error;
  EXPECT_TRUE(script.empty());
  // Missing file: descriptive failure, no abort.
  EXPECT_FALSE(LoadScenarioParam("/nonexistent/outage.txt", &script, &error));
  EXPECT_NE(error.find("cannot open scenario file"), std::string::npos);
  // Inline parse errors keep their line tags.
  EXPECT_FALSE(LoadScenarioParam("inline:PORT_DOWN 1 0;BOOM", &script,
                                 &error));
  EXPECT_NE(error.find("line 2:"), std::string::npos);
}

TEST(ScenarioRuntimeTest, BindRejectsOutOfRangeTargets) {
  const SwitchSpec base = SwitchSpec::Uniform(4, 4, 2);
  ScenarioRuntime runtime;
  std::string error;
  EXPECT_FALSE(runtime.Bind(MustParse("PORT_DOWN 1 9\n"), base, &error));
  EXPECT_NE(error.find("line 1: port 9 out of range (switch has 4 hosts)"),
            std::string::npos);
  EXPECT_FALSE(
      runtime.Bind(MustParse("PODS 2\nPOD_DOWN 1 5\n"), base, &error));
  EXPECT_NE(error.find("line 2: pod 5 out of range (PODS 2)"),
            std::string::npos);
}

TEST(ScenarioRuntimeTest, EmptyScriptBindsForWireMode) {
  const SwitchSpec base = SwitchSpec::Uniform(3, 3, 1);
  ScenarioRuntime runtime;
  std::string error;
  ASSERT_TRUE(runtime.Bind(ScenarioScript(), base, &error)) << error;
  EXPECT_TRUE(runtime.bound());
  EXPECT_FALSE(runtime.degraded());
  EXPECT_FALSE(runtime.AnyPortDown());
  // Wire FAULT/RECOVER works without any script.
  ASSERT_TRUE(runtime.ForceHostDown(1, &error)) << error;
  EXPECT_TRUE(runtime.AnyPortDown());
  EXPECT_TRUE(runtime.IsBlocked(1, 0));
  EXPECT_TRUE(runtime.IsBlocked(0, 1));
  ASSERT_TRUE(runtime.ForceHostUp(1, &error)) << error;
  EXPECT_FALSE(runtime.degraded());
  EXPECT_FALSE(runtime.ForceHostDown(7, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos);
}

TEST(ScenarioRuntimeTest, SetCapacityClampsToBaseAndRestores) {
  const SwitchSpec base = SwitchSpec::Uniform(2, 2, 3);
  ScenarioRuntime runtime;
  std::string error;
  ASSERT_TRUE(runtime.Bind(MustParse("SET_CAPACITY 5 0 100\n"
                                     "SET_CAPACITY 10 0 1\n"
                                     "PORT_UP 20 0\n"),
                           base, &error))
      << error;
  // A raise above base clamps to base: still not degraded.
  runtime.AdvanceTo(5);
  EXPECT_FALSE(runtime.degraded());
  EXPECT_EQ(runtime.view().input_capacity(0), 3);
  // Shrink takes effect on both sides of the host.
  runtime.AdvanceTo(10);
  EXPECT_TRUE(runtime.degraded());
  EXPECT_FALSE(runtime.AnyPortDown());
  EXPECT_EQ(runtime.view().input_capacity(0), 1);
  EXPECT_EQ(runtime.view().output_capacity(0), 1);
  EXPECT_EQ(runtime.view().input_capacity(1), 3);
  // AdvanceTo is monotone: one call catches up over skipped rounds.
  runtime.AdvanceTo(1000);
  EXPECT_FALSE(runtime.degraded());
  EXPECT_EQ(runtime.view().input_capacity(0), 3);
}

TEST(ScenarioRuntimeTest, DownEventsAreIdempotentAndViewClampsToOne) {
  const SwitchSpec base = SwitchSpec::Uniform(3, 3, 2);
  ScenarioRuntime runtime;
  std::string error;
  ASSERT_TRUE(runtime.Bind(MustParse("PORT_DOWN 1 2\n"
                                     "PORT_DOWN 2 2\n"  // Double-down: no-op.
                                     "PORT_UP 3 0\n"    // Up a live port.
                                     "PORT_UP 8 2\n"),
                           base, &error))
      << error;
  runtime.AdvanceTo(2);
  EXPECT_TRUE(runtime.AnyPortDown());
  EXPECT_TRUE(runtime.IsBlocked(2, 0));
  EXPECT_TRUE(runtime.IsBlocked(0, 2));
  EXPECT_FALSE(runtime.IsBlocked(0, 1));
  // The policy-facing view never exposes capacity 0 (SwitchSpec requires
  // >= 1); blocked flows are withheld instead.
  EXPECT_EQ(runtime.view().input_capacity(2), 1);
  runtime.AdvanceTo(3);  // PORT_UP on an untouched port changes nothing.
  EXPECT_TRUE(runtime.AnyPortDown());
  runtime.AdvanceTo(8);
  EXPECT_FALSE(runtime.AnyPortDown());
  EXPECT_FALSE(runtime.degraded());
}

TEST(ScenarioRuntimeTest, PodEventsMatchFabricBlockPartition) {
  // PodOfHost inside Bind() must agree with the fabric block partitioner,
  // so a PODS script means the same hosts on a single switch and a fabric.
  const int kHosts = 5, kPods = 2;
  const SwitchSpec base = SwitchSpec::Uniform(kHosts, kHosts, 1);
  ScenarioRuntime runtime;
  std::string error;
  ASSERT_TRUE(runtime.Bind(MustParse("PODS 2\nPOD_DOWN 1 0\n"), base, &error))
      << error;
  runtime.AdvanceTo(1);
  for (PortId h = 0; h < kHosts; ++h) {
    const bool in_pod0 =
        ShardOfHost(h, kPods, FabricPartition::kBlock, kHosts) == 0;
    EXPECT_EQ(runtime.IsBlocked(h, h), in_pod0) << "host " << h;
  }
}

// --- Batch simulator under scenarios -------------------------------------

constexpr char kSpec[] = "poisson:ports=8,cap=2,load=0.9,rounds=60,seed=11";

Instance MustLoad(const std::string& spec) {
  std::string error;
  const auto instance = LoadInstance(spec, &error);
  EXPECT_TRUE(instance.has_value()) << error;
  return *instance;
}

SimulationResult RunBatch(const Instance& instance,
                          const ScenarioScript* scenario,
                          Round max_rounds = 0) {
  std::string error;
  const auto policy = MakeServePolicy("online.srpt", &error);
  EXPECT_NE(policy, nullptr) << error;
  SimulationOptions options;
  options.scenario = scenario;
  if (max_rounds > 0) options.max_rounds = max_rounds;
  return Simulate(instance, *policy, options);
}

std::string ScheduleBytes(const Schedule& schedule) {
  std::ostringstream out;
  WriteScheduleCsv(schedule, out);
  return out.str();
}

TEST(ScenarioSimulateTest, BlockedFlowsDrainAfterRecovery) {
  const Instance instance = MustLoad(kSpec);
  const SimulationResult base = RunBatch(instance, nullptr);
  const ScenarioScript script =
      MustParse("PORT_DOWN 10 3\nPORT_DOWN 10 5\nPORT_UP 40 3\nPORT_UP 40 5");
  const SimulationResult faulty = RunBatch(instance, &script);
  // Graceful degradation: every flow still completes, nothing is dropped.
  ASSERT_FALSE(faulty.truncated) << faulty.error;
  EXPECT_EQ(faulty.realized.num_flows(), instance.num_flows());
  EXPECT_GT(faulty.downtime_rounds, 0);
  EXPECT_EQ(base.downtime_rounds, 0);
  // Holding two hosts down can only hurt: backlog surges, responses inflate.
  EXPECT_GE(faulty.peak_backlog, base.peak_backlog);
  EXPECT_GT(faulty.metrics.total_response, base.metrics.total_response);
  // The realized schedule stays valid against the *base* switch: the
  // overlay only ever shrinks capacities, never raises them.
  EXPECT_EQ(faulty.schedule.ComputeLoads(instance).MaxOverload(instance.sw()),
            0);
}

TEST(ScenarioSimulateTest, StrandedFlowsTruncateWithError) {
  const Instance instance = MustLoad(kSpec);
  // Kill a host with no recovery event: its flows can never drain.
  const ScenarioScript script = MustParse("PORT_DOWN 5 2");
  const SimulationResult r = RunBatch(instance, &script);
  EXPECT_TRUE(r.truncated);
  EXPECT_NE(r.error.find("no recovery event"), std::string::npos) << r.error;
}

TEST(ScenarioSimulateTest, MaxRoundsTruncatesInsteadOfAborting) {
  const Instance instance = MustLoad(kSpec);
  // Recovery is scheduled, but far beyond the horizon we allow.
  const ScenarioScript script = MustParse("PORT_DOWN 5 2\nPORT_UP 5000 2");
  const SimulationResult r = RunBatch(instance, &script, /*max_rounds=*/50);
  EXPECT_TRUE(r.truncated);
  EXPECT_NE(r.error.find("max_rounds"), std::string::npos) << r.error;
}

TEST(ScenarioSimulateTest, NoopOverlayReplaysFaultFreeByteIdentically) {
  const Instance instance = MustLoad(kSpec);
  const SimulationResult base = RunBatch(instance, nullptr);
  // SET_CAPACITY at/above base clamps to base: zero effective change, so
  // the realized schedule must be byte-identical to the fault-free run.
  const ScenarioScript script =
      MustParse("SET_CAPACITY 5 0 2\nSET_CAPACITY 9 1 999");
  const SimulationResult noop = RunBatch(instance, &script);
  ASSERT_FALSE(noop.truncated) << noop.error;
  EXPECT_EQ(noop.downtime_rounds, 0);
  EXPECT_EQ(noop.rounds, base.rounds);
  EXPECT_EQ(ScheduleBytes(noop.schedule), ScheduleBytes(base.schedule));
}

TEST(ScenarioSimulateTest, ScenarioReplayIsDeterministic) {
  const Instance instance = MustLoad(kSpec);
  const ScenarioScript script = MustParse("PORT_DOWN 10 3\nPORT_UP 30 3");
  const SimulationResult a = RunBatch(instance, &script);
  const SimulationResult b = RunBatch(instance, &script);
  ASSERT_FALSE(a.truncated) << a.error;
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.downtime_rounds, b.downtime_rounds);
  EXPECT_EQ(ScheduleBytes(a.schedule), ScheduleBytes(b.schedule));
}

// Satellite regression: SwitchSpec rejects non-positive capacities with a
// descriptive message pointing at the scenario engine instead.
TEST(ScenarioSwitchSpecTest, RejectsNonPositiveCapacity) {
  EXPECT_DEATH(SwitchSpec({1, 0}, {1, 1}),
               "input port 1 has non-positive capacity 0");
  EXPECT_DEATH(SwitchSpec({2, 2}, {-3, 2}),
               "output port 0 has non-positive capacity -3");
}

// --- Fabric projection ----------------------------------------------------

TEST(ScenarioFabricTest, ProjectsPodEventsOntoOwnedAndReplicaPorts) {
  const Instance instance = MustLoad(kSpec);
  const FabricAssignment fa =
      PartitionInstance(instance, 2, FabricPartition::kBlock);
  const ScenarioScript script = MustParse("PODS 2\nPOD_DOWN 5 0\nPOD_UP 9 0");
  for (int shard = 0; shard < fa.shards; ++shard) {
    std::vector<ScenarioOp> ops;
    std::string error;
    ASSERT_TRUE(ProjectScenarioOps(script, fa, shard, &ops, &error)) << error;
    for (const ScenarioOp& op : ops) {
      // Every projected op must land on a local port whose global host the
      // partitioner assigned to pod 0 (owned ports in pod 0, replica egress
      // ports elsewhere).
      const PortId host = op.input_side
                              ? fa.shard_input_host[shard][op.port]
                              : fa.shard_output_host[shard][op.port];
      ASSERT_GE(host, 0);
      EXPECT_EQ(fa.shard_of_host[host], 0)
          << "shard " << shard << " op on host " << host;
      if (shard != 0) {
        // Pod 1 owns none of pod 0's hosts: only replica egress ports.
        EXPECT_FALSE(op.input_side);
      }
    }
    // Pod 0 itself downs both sides of every owned host.
    if (shard == 0) EXPECT_FALSE(ops.empty());
  }
}

TEST(ScenarioFabricTest, RejectsPodCountMismatchAndBadHost) {
  const Instance instance = MustLoad(kSpec);
  const FabricAssignment fa =
      PartitionInstance(instance, 2, FabricPartition::kBlock);
  std::vector<ScenarioOp> ops;
  std::string error;
  EXPECT_FALSE(ProjectScenarioOps(MustParse("PODS 3\nPOD_DOWN 1 0"), fa, 0,
                                  &ops, &error));
  EXPECT_NE(error.find("3 pods but the fabric has 2"), std::string::npos)
      << error;
  EXPECT_FALSE(ProjectScenarioOps(MustParse("PORT_DOWN 1 99"), fa, 0, &ops,
                                  &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

TEST(ScenarioFabricTest, FabricRunDegradesAndRecoversUnderPodOutage) {
  const Instance instance = MustLoad(kSpec);
  const FabricAssignment fa =
      PartitionInstance(instance, 2, FabricPartition::kBlock);
  ReplayOptions options;
  options.make_policy = [](std::uint64_t seed) {
    return MakePolicy("srpt", seed);
  };
  const ReplayRun base = RunFabric(instance, fa, options);
  ASSERT_FALSE(base.truncated) << base.error;
  const ScenarioScript script = MustParse("PODS 2\nPOD_DOWN 10 1\nPOD_UP 30 1");
  options.sim.scenario = &script;
  const ReplayRun faulty = RunFabric(instance, fa, options);
  ASSERT_FALSE(faulty.truncated) << faulty.error;
  EXPECT_GT(faulty.downtime_rounds, 0);
  EXPECT_EQ(base.downtime_rounds, 0);
  EXPECT_GE(faulty.rounds, base.rounds);
  // A stranded pod (no recovery) truncates the whole fabric run gracefully.
  const ScenarioScript stranded = MustParse("PODS 2\nPOD_DOWN 10 1");
  options.sim.scenario = &stranded;
  const ReplayRun dead = RunFabric(instance, fa, options);
  EXPECT_TRUE(dead.truncated);
  EXPECT_NE(dead.error.find("no recovery event"), std::string::npos)
      << dead.error;
}

// --- MIGRATE --------------------------------------------------------------

TEST(ScenarioParseTest, MigrateParsesAndErrors) {
  const ScenarioScript script = MustParse("MIGRATE 5 2 6 0.5\n");
  EXPECT_TRUE(script.has_migrations());
  ASSERT_EQ(script.events().size(), 1u);
  const ScenarioEvent& e = script.events()[0];
  EXPECT_EQ(e.kind, ScenarioEvent::Kind::kMigrate);
  EXPECT_EQ(e.t, 5);
  EXPECT_EQ(e.target, 2);
  EXPECT_EQ(e.dst, 6);
  EXPECT_DOUBLE_EQ(e.frac, 0.5);
  EXPECT_FALSE(MustParse("PORT_DOWN 1 0\n").has_migrations());

  EXPECT_NE(ParseError("MIGRATE 5 2 6\n")
                .find("line 1: MIGRATE wants: MIGRATE <t> <src> <dst> <frac>"),
            std::string::npos);
  EXPECT_NE(ParseError("\nMIGRATE 5 2 6 1.5\n")
                .find("line 2: MIGRATE fraction must be a real in [0, 1]"),
            std::string::npos);
  EXPECT_NE(ParseError("MIGRATE 5 2 six 0.5\n").find("line 1:"),
            std::string::npos);
}

TEST(ScenarioRuntimeTest, MigrateBindRejectsOutOfRangeHosts) {
  const SwitchSpec base = SwitchSpec::Uniform(4, 4, 1);
  ScenarioRuntime runtime;
  std::string error;
  EXPECT_FALSE(runtime.Bind(MustParse("MIGRATE 5 9 1 0.5"), base, &error));
  EXPECT_NE(error.find("port 9 out of range"), std::string::npos) << error;
  EXPECT_FALSE(runtime.Bind(MustParse("MIGRATE 5 1 9 0.5"), base, &error));
  EXPECT_NE(error.find("port 9 out of range"), std::string::npos) << error;
  ASSERT_TRUE(runtime.Bind(MustParse("MIGRATE 5 1 3 0.5"), base, &error))
      << error;
  EXPECT_TRUE(runtime.has_migrations());
  EXPECT_FALSE(runtime.degraded());  // Load movement, not a capacity op.
}

TEST(ScenarioMigrateTest, RewriteIsProspectiveAndDropsNothing) {
  const Instance instance = MustLoad(kSpec);
  // frac=1 with an in-range destination: every arrival touching host 3
  // from round 30 on re-homes to host 5, deterministically.
  const ScenarioScript script = MustParse("MIGRATE 30 3 5 1.0");
  long long migrated = 0;
  const Instance after = ApplyScenarioMigrations(instance, script, &migrated);
  ASSERT_EQ(after.num_flows(), instance.num_flows());
  EXPECT_GT(migrated, 0);
  long long changed = 0;
  for (int i = 0; i < instance.num_flows(); ++i) {
    const Flow& before = instance.flow(i);
    const Flow& flow = after.flow(i);
    // Identity, demand, release, and coflow tag are preserved.
    EXPECT_EQ(flow.demand, before.demand);
    EXPECT_EQ(flow.release, before.release);
    EXPECT_EQ(flow.coflow, before.coflow);
    if (before.release < 30) {
      // Prospective: flows released before the rule keep their ports.
      EXPECT_EQ(flow.src, before.src);
      EXPECT_EQ(flow.dst, before.dst);
    } else {
      EXPECT_NE(flow.src, 3);
      EXPECT_NE(flow.dst, 3);
      EXPECT_EQ(flow.src, before.src == 3 ? 5 : before.src);
      EXPECT_EQ(flow.dst, before.dst == 3 ? 5 : before.dst);
    }
    if (flow.src != before.src || flow.dst != before.dst) ++changed;
  }
  EXPECT_EQ(migrated, changed);
}

TEST(ScenarioMigrateTest, BatchSimulationMatchesRewrittenInstance) {
  const Instance instance = MustLoad(kSpec);
  const ScenarioScript script = MustParse("MIGRATE 20 1 6 0.6\n"
                                          "MIGRATE 35 2 6 0.4");
  long long migrated = 0;
  const Instance after = ApplyScenarioMigrations(instance, script, &migrated);
  ASSERT_GT(migrated, 0);
  // A MIGRATE-only scenario never degrades capacity, so simulating the
  // original instance under the script must replay the rewritten instance's
  // fault-free run byte-identically — the cross-path determinism contract.
  const SimulationResult scenario_run = RunBatch(instance, &script);
  const SimulationResult rewritten_run = RunBatch(after, nullptr);
  ASSERT_FALSE(scenario_run.truncated) << scenario_run.error;
  EXPECT_EQ(scenario_run.migrated_flows, migrated);
  EXPECT_EQ(rewritten_run.migrated_flows, 0);
  EXPECT_EQ(scenario_run.realized.num_flows(), instance.num_flows());
  EXPECT_EQ(scenario_run.rounds, rewritten_run.rounds);
  EXPECT_EQ(ScheduleBytes(scenario_run.schedule),
            ScheduleBytes(rewritten_run.schedule));
  // Replays of the same scenario run are identical (fixed migration seed).
  const SimulationResult again = RunBatch(instance, &script);
  EXPECT_EQ(again.migrated_flows, migrated);
  EXPECT_EQ(ScheduleBytes(again.schedule),
            ScheduleBytes(scenario_run.schedule));
}

TEST(ScenarioMigrateTest, RemapArrivalMatchesInstanceRewrite) {
  const Instance instance = MustLoad(kSpec);
  const ScenarioScript script = MustParse("MIGRATE 10 0 7 0.5");
  long long migrated = 0;
  const Instance after = ApplyScenarioMigrations(instance, script, &migrated);
  // Feeding the same flows through the runtime in (release, id) admission
  // order must reproduce the rewrite exactly: both draw from the identical
  // fixed-seed coin stream.
  ScenarioRuntime runtime;
  std::string error;
  ASSERT_TRUE(runtime.Bind(script, instance.sw(), &error)) << error;
  std::vector<int> order(instance.num_flows());
  for (int i = 0; i < instance.num_flows(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return instance.flow(a).release < instance.flow(b).release;
  });
  for (const int id : order) {
    PortId src = instance.flow(id).src;
    PortId dst = instance.flow(id).dst;
    runtime.RemapArrival(instance.flow(id).release, &src, &dst);
    EXPECT_EQ(src, after.flow(id).src) << "flow " << id;
    EXPECT_EQ(dst, after.flow(id).dst) << "flow " << id;
  }
  EXPECT_EQ(runtime.migrated_flows(), migrated);
}

TEST(ScenarioMigrateTest, FabricProjectionSkipsMigrateOps) {
  const Instance instance = MustLoad(kSpec);
  const FabricAssignment fa =
      PartitionInstance(instance, 2, FabricPartition::kBlock);
  // MIGRATE is consumed before partitioning (ApplyScenarioMigrations); the
  // per-shard projection must ignore it and still project capacity events.
  const ScenarioScript script =
      MustParse("MIGRATE 5 2 6 0.5\nPORT_DOWN 10 3\nPORT_UP 20 3");
  for (int shard = 0; shard < fa.shards; ++shard) {
    std::vector<ScenarioOp> ops;
    std::string error;
    ASSERT_TRUE(ProjectScenarioOps(script, fa, shard, &ops, &error)) << error;
    for (const ScenarioOp& op : ops) EXPECT_GE(op.t, 10);
  }
  // A MIGRATE-only script projects to zero ops on every shard.
  const ScenarioScript only = MustParse("MIGRATE 5 2 6 0.5");
  std::vector<ScenarioOp> ops;
  std::string error;
  ASSERT_TRUE(ProjectScenarioOps(only, fa, 0, &ops, &error)) << error;
  EXPECT_TRUE(ops.empty());
}

TEST(ScenarioMigrateTest, AllowanceSumsDistinctDestinationHosts) {
  const SwitchSpec base = SwitchSpec::Uniform(8, 8, 3);
  EXPECT_EQ(MigrationCapacityAllowance(MustParse("PORT_DOWN 1 0"), base), 0);
  // Two rules into host 5, one into host 6: distinct destinations 5 and 6,
  // max(cap_in, cap_out) = 3 each.
  const ScenarioScript script = MustParse("MIGRATE 5 1 5 0.5\n"
                                          "MIGRATE 9 2 5 0.5\n"
                                          "MIGRATE 9 3 6 1.0");
  EXPECT_EQ(MigrationCapacityAllowance(script, base), 6);
}

}  // namespace
}  // namespace flowsched
