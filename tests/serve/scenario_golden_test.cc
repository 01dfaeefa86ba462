// Golden tests for fault-injection runs (ISSUE 7 satellite): the realized
// schedules of online.srpt and coflow.sebf under a fixed 3-event scenario
// (outage -> capacity shrink -> recovery) are pinned byte-for-byte, and the
// streaming simulator must replay the identical schedule as batch under the
// same script. Any change to event application order, blocked-flow
// filtering, or the downtime accounting shows up here first.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "api/instance_source.h"
#include "api/stream_source.h"
#include "core/online/simulator.h"
#include "model/trace_io.h"
#include "serve/daemon.h"
#include "serve/stream_sources.h"
#include "serve/streaming_simulator.h"

namespace flowsched {
namespace {

// Small deterministic workloads: 4 hosts, enough backlog that the round-8
// outage visibly reshapes the schedule tail.
constexpr char kFlowSpec[] =
    "poisson:ports=4,cap=2,load=0.8,rounds=30,dmax=1,seed=7";
constexpr char kCoflowSpec[] =
    "coflow:ports=4,cap=2,load=0.7,rounds=30,width=3,skew=0.5,seed=9";

// Down host 1, then shrink host 2 to a single unit, then recover host 1.
// Host 2 stays shrunk through the drain — recovery of *every* fault is not
// required for the run to finish.
constexpr char kScript[] =
    "PORT_DOWN 8 1\n"
    "SET_CAPACITY 16 2 1\n"
    "PORT_UP 24 1\n";

ScenarioScript MustParseScript(const char* text = kScript) {
  ScenarioScript script;
  std::string error;
  EXPECT_TRUE(ScenarioScript::ParseText(text, &script, &error)) << error;
  return script;
}

Instance MustLoad(const std::string& spec) {
  std::string error;
  const auto instance = LoadInstance(spec, &error);
  EXPECT_TRUE(instance.has_value()) << error;
  return *instance;
}

std::string ScheduleBytes(const Schedule& schedule) {
  std::ostringstream out;
  WriteScheduleCsv(schedule, out);
  return out.str();
}

SimulationResult RunBatch(const Instance& instance, const std::string& policy,
                          const ScenarioScript& script,
                          Round max_rounds = SimulationOptions().max_rounds) {
  std::string error;
  const auto p = MakeServePolicy(policy, &error);
  EXPECT_NE(p, nullptr) << error;
  SimulationOptions options;
  options.scenario = &script;
  options.max_rounds = max_rounds;
  return Simulate(instance, *p, options);
}

// Rebuilds a Schedule from captured "MATCH <t> <id>..." lines (the same
// parser as streaming_equivalence_test.cc).
Schedule ScheduleFromMatchLines(const std::string& output, int num_flows) {
  Schedule schedule(num_flows);
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("MATCH ", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    Round t = 0;
    fields >> t;
    FlowId id = 0;
    while (fields >> id) {
      EXPECT_FALSE(schedule.IsAssigned(id)) << "flow matched twice: " << id;
      schedule.Assign(id, t);
    }
  }
  return schedule;
}

// GOLDEN(policy): the exact realized schedule under kScript, pinned as the
// WriteScheduleCsv bytes. Regenerate by printing ScheduleBytes() from the
// matching batch run if the scenario semantics deliberately change.
const char* GoldenSchedule(const std::string& policy);

TEST(ScenarioGoldenTest, SrptScheduleUnderOutageIsPinned) {
  const Instance instance = MustLoad(kFlowSpec);
  const ScenarioScript script = MustParseScript();
  const SimulationResult r = RunBatch(instance, "online.srpt", script);
  ASSERT_FALSE(r.truncated) << r.error;
  EXPECT_GT(r.downtime_rounds, 0);
  EXPECT_EQ(ScheduleBytes(r.schedule), GoldenSchedule("online.srpt"));
}

TEST(ScenarioGoldenTest, SebfScheduleUnderOutageIsPinned) {
  const Instance instance = MustLoad(kCoflowSpec);
  const ScenarioScript script = MustParseScript();
  const SimulationResult r = RunBatch(instance, "coflow.sebf", script);
  ASSERT_FALSE(r.truncated) << r.error;
  EXPECT_GT(r.downtime_rounds, 0);
  EXPECT_EQ(ScheduleBytes(r.schedule), GoldenSchedule("coflow.sebf"));
}

// Streaming and batch must realize bit-identical schedules under the same
// script — the scenario overlay cannot break the serve determinism contract.
void CheckStreamingMatchesBatchUnderScenario(const std::string& spec,
                                             const std::string& policy) {
  SCOPED_TRACE(spec + " / " + policy);
  const Instance instance = MustLoad(spec);
  const ScenarioScript script = MustParseScript();
  const SimulationResult batch = RunBatch(instance, policy, script);
  ASSERT_FALSE(batch.truncated) << batch.error;

  std::string error;
  const auto p = MakeServePolicy(policy, &error);
  ASSERT_NE(p, nullptr) << error;
  std::ostringstream match;
  StreamingOptions options;
  options.match_out = &match;
  options.scenario = &script;
  InstanceStreamSource source(instance);
  StreamingSimulator sim(source.sw(), *p, options);
  const StreamingSummary summary = sim.Run(source);

  EXPECT_FALSE(summary.truncated) << summary.error;
  EXPECT_EQ(summary.flows, instance.num_flows());
  EXPECT_EQ(summary.rounds, batch.rounds);
  EXPECT_EQ(summary.peak_backlog, batch.peak_backlog);
  EXPECT_EQ(summary.total_response, batch.metrics.total_response);
  EXPECT_EQ(summary.downtime_rounds,
            static_cast<long long>(batch.downtime_rounds));
  const Schedule streamed =
      ScheduleFromMatchLines(match.str(), instance.num_flows());
  EXPECT_EQ(ScheduleBytes(streamed), ScheduleBytes(batch.schedule));
}

TEST(ScenarioGoldenTest, StreamingMatchesBatchUnderScenarioSrpt) {
  CheckStreamingMatchesBatchUnderScenario(kFlowSpec, "online.srpt");
}

TEST(ScenarioGoldenTest, StreamingMatchesBatchUnderScenarioSebf) {
  CheckStreamingMatchesBatchUnderScenario(kCoflowSpec, "coflow.sebf");
}

// The loop contract beyond the fault-free path: every scripted case below
// runs the same instance through batch Simulate() and a streaming path and
// requires them to agree — on the schedule bytes when the run drains, and
// on the truncation fields when it cannot.
constexpr char kContractSpec[] =
    "poisson:ports=8,cap=2,load=0.9,rounds=60,seed=11";
// Two outages that overlap, then both recover.
constexpr char kTwoOutages[] =
    "PORT_DOWN 10 3\n"
    "PORT_DOWN 10 5\n"
    "PORT_UP 40 3\n"
    "PORT_UP 40 5\n";
// Re-home 60% of host 1's arrivals to host 6 from round 20, then take host
// 6 down and bring it back.
constexpr char kMigrate[] =
    "MIGRATE 20 1 6 0.6\n"
    "PORT_DOWN 25 6\n"
    "PORT_UP 45 6\n";
// Host 2 never comes back: its flows strand once arrivals end.
constexpr char kStranding[] = "PORT_DOWN 5 2\n";

struct StreamRun {
  StreamingSummary summary;
  Schedule schedule;
};

// The pull path: StreamingSimulator::Run over the replay source.
StreamRun RunPull(const Instance& instance, const std::string& policy,
                  const ScenarioScript& script, Round max_rounds = -1) {
  std::string error;
  const auto p = MakeServePolicy(policy, &error);
  EXPECT_NE(p, nullptr) << error;
  std::ostringstream match;
  StreamingOptions options;
  options.match_out = &match;
  options.scenario = &script;
  options.max_rounds = max_rounds;
  InstanceStreamSource source(instance);
  StreamingSimulator sim(source.sw(), *p, options);
  StreamRun run;
  run.summary = sim.Run(source);
  run.schedule = ScheduleFromMatchLines(match.str(), instance.num_flows());
  return run;
}

// The wire path: each round's arrivals are Inject()ed under their batch
// ids (admission order: by release, stable by flow id), then the round is
// Step()ped — flowsched_serve's ARRIVE lines followed by TICK.
StreamRun RunWire(const Instance& instance, const std::string& policy,
                  const ScenarioScript& script) {
  std::string error;
  const auto p = MakeServePolicy(policy, &error);
  EXPECT_NE(p, nullptr) << error;
  std::vector<FlowId> order(instance.num_flows());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](FlowId a, FlowId b) {
    return instance.flow(a).release < instance.flow(b).release;
  });
  std::ostringstream match;
  StreamingOptions options;
  options.match_out = &match;
  options.scenario = &script;
  StreamingSimulator sim(instance.sw(), *p, options);
  std::size_t next = 0;
  while (next < order.size() || sim.backlog_size() > 0) {
    for (; next < order.size() &&
           instance.flow(order[next]).release <= sim.round();
         ++next) {
      Flow f = instance.flow(order[next]);
      f.id = static_cast<FlowId>(next);
      EXPECT_TRUE(sim.Inject(f, &error)) << error;
    }
    sim.Step();
  }
  StreamRun run;
  run.summary = sim.Summarize();
  run.schedule = ScheduleFromMatchLines(match.str(), instance.num_flows());
  return run;
}

void ExpectDrainedRunMatchesBatch(const SimulationResult& batch,
                                  const StreamRun& run) {
  ASSERT_FALSE(batch.truncated) << batch.error;
  EXPECT_FALSE(run.summary.truncated) << run.summary.error;
  EXPECT_EQ(run.summary.flows, batch.realized.num_flows());
  EXPECT_EQ(run.summary.rounds, batch.rounds);
  EXPECT_EQ(run.summary.peak_backlog, batch.peak_backlog);
  EXPECT_EQ(run.summary.total_response, batch.metrics.total_response);
  EXPECT_EQ(run.summary.downtime_rounds,
            static_cast<long long>(batch.downtime_rounds));
  EXPECT_EQ(run.summary.migrated_flows, batch.migrated_flows);
  EXPECT_EQ(ScheduleBytes(run.schedule), ScheduleBytes(batch.schedule));
}

TEST(ScenarioGoldenTest, WireMatchesBatchFaultFree) {
  const Instance instance = MustLoad(kContractSpec);
  const ScenarioScript none;
  ExpectDrainedRunMatchesBatch(RunBatch(instance, "online.srpt", none),
                               RunWire(instance, "online.srpt", none));
}

TEST(ScenarioGoldenTest, WireMatchesBatchUnderOutages) {
  const Instance instance = MustLoad(kContractSpec);
  const ScenarioScript script = MustParseScript(kTwoOutages);
  const SimulationResult batch = RunBatch(instance, "online.srpt", script);
  EXPECT_GT(batch.downtime_rounds, 0);
  ExpectDrainedRunMatchesBatch(batch, RunWire(instance, "online.srpt", script));
}

TEST(ScenarioGoldenTest, WireMatchesBatchUnderMigrate) {
  const Instance instance = MustLoad(kContractSpec);
  const ScenarioScript script = MustParseScript(kMigrate);
  const SimulationResult batch = RunBatch(instance, "online.srpt", script);
  EXPECT_EQ(batch.migrated_flows, 35);
  ExpectDrainedRunMatchesBatch(batch, RunWire(instance, "online.srpt", script));
}

TEST(ScenarioGoldenTest, PullMatchesBatchUnderMigrate) {
  const Instance instance = MustLoad(kContractSpec);
  const ScenarioScript script = MustParseScript(kMigrate);
  const SimulationResult batch = RunBatch(instance, "online.srpt", script);
  EXPECT_EQ(batch.migrated_flows, 35);
  ExpectDrainedRunMatchesBatch(batch, RunPull(instance, "online.srpt", script));
}

TEST(ScenarioGoldenTest, PullMatchesBatchWhenStranded) {
  const Instance instance = MustLoad(kContractSpec);
  const ScenarioScript script = MustParseScript(kStranding);
  const SimulationResult batch = RunBatch(instance, "online.srpt", script);
  const StreamRun run = RunPull(instance, "online.srpt", script);
  ASSERT_TRUE(batch.truncated);
  EXPECT_EQ(batch.rounds, 59);
  EXPECT_EQ(batch.downtime_rounds, 55);
  EXPECT_EQ(batch.peak_backlog, 82);
  EXPECT_EQ(batch.error,
            "scenario leaves " +
                std::to_string(run.summary.arrived - run.summary.flows) +
                " flows on dead ports with no recovery event after round 59");
  EXPECT_TRUE(run.summary.truncated);
  EXPECT_FALSE(run.summary.source_error);
  EXPECT_EQ(run.summary.rounds, batch.rounds);
  EXPECT_EQ(run.summary.downtime_rounds,
            static_cast<long long>(batch.downtime_rounds));
  EXPECT_EQ(run.summary.peak_backlog, batch.peak_backlog);
  EXPECT_EQ(run.summary.error, batch.error);
}

TEST(ScenarioGoldenTest, PullMatchesBatchAtScriptedRoundCap) {
  const Instance instance = MustLoad(kContractSpec);
  const ScenarioScript script = MustParseScript(kStranding);
  const SimulationResult batch =
      RunBatch(instance, "online.srpt", script, /*max_rounds=*/50);
  const StreamRun run =
      RunPull(instance, "online.srpt", script, /*max_rounds=*/50);
  ASSERT_TRUE(batch.truncated);
  EXPECT_EQ(batch.rounds, 50);
  EXPECT_EQ(batch.downtime_rounds, 45);
  EXPECT_TRUE(run.summary.truncated);
  EXPECT_EQ(run.summary.rounds, batch.rounds);
  EXPECT_EQ(run.summary.downtime_rounds,
            static_cast<long long>(batch.downtime_rounds));
}

// Delegating source that raises the shared stop flag once arrivals for
// `stop_round` have been pulled — a deterministic stand-in for a signal
// landing mid-stream.
class StopAtRoundSource : public ArrivalSource {
 public:
  StopAtRoundSource(const Instance& instance, Round stop_round,
                    volatile std::sig_atomic_t* flag)
      : inner_(instance), stop_round_(stop_round), flag_(flag) {}
  const SwitchSpec& sw() const override { return inner_.sw(); }
  void ArrivalsInto(Round t, std::span<const Flow> backlog,
                    std::vector<Flow>* out) override {
    if (t >= stop_round_) *flag_ = 1;
    inner_.ArrivalsInto(t, backlog, out);
  }
  bool Exhausted(Round t) override { return inner_.Exhausted(t); }
  Round NextArrivalRound(Round t) override {
    return inner_.NextArrivalRound(t);
  }

 private:
  InstanceStreamSource inner_;
  Round stop_round_;
  volatile std::sig_atomic_t* flag_;
};

TEST(ScenarioGoldenTest, StreamingStopFlagTruncatesWithSummary) {
  // The cooperative-shutdown path flowsched_serve uses: raising the stop
  // flag mid-stream must finish the round in flight, then end the run
  // truncated with a coherent summary — never an abort.
  const Instance instance = MustLoad(kFlowSpec);
  std::string error;
  const auto p = MakeServePolicy("online.srpt", &error);
  ASSERT_NE(p, nullptr) << error;
  const ScenarioScript script = MustParseScript();
  volatile std::sig_atomic_t stop = 0;
  StreamingOptions options;
  options.stop = &stop;
  options.scenario = &script;
  // Stop during the outage window (host 1 is down from round 8), while
  // flows are provably still backlogged behind the dead port.
  StopAtRoundSource source(instance, /*stop_round=*/12, &stop);
  StreamingSimulator sim(source.sw(), *p, options);
  const StreamingSummary summary = sim.Run(source);
  EXPECT_TRUE(summary.truncated);
  EXPECT_EQ(summary.rounds, 13);  // Round 12 completes, 13 does not start.
  EXPECT_GT(summary.arrived, summary.flows);
  EXPECT_GT(summary.downtime_rounds, 0);
  // A stop before anything arrives is a *complete* empty run, not a
  // truncated one.
  volatile std::sig_atomic_t stop_now = 1;
  StreamingOptions eager;
  eager.stop = &stop_now;
  const auto p2 = MakeServePolicy("online.srpt", &error);
  ASSERT_NE(p2, nullptr) << error;
  InstanceStreamSource replay(instance);
  StreamingSimulator sim2(replay.sw(), *p2, eager);
  const StreamingSummary empty = sim2.Run(replay);
  EXPECT_FALSE(empty.truncated);
  EXPECT_EQ(empty.arrived, 0);
}

const char* GoldenSchedule(const std::string& policy) {
  if (policy == "online.srpt") {
    return
      "flow_id,round\n"
      "0,0\n"
      "1,0\n"
      "2,0\n"
      "3,0\n"
      "4,1\n"
      "5,0\n"
      "6,1\n"
      "7,2\n"
      "8,2\n"
      "9,3\n"
      "10,4\n"
      "11,4\n"
      "12,4\n"
      "13,4\n"
      "14,4\n"
      "15,5\n"
      "16,5\n"
      "17,5\n"
      "18,5\n"
      "19,5\n"
      "20,6\n"
      "21,6\n"
      "22,6\n"
      "23,7\n"
      "24,7\n"
      "25,24\n"
      "26,24\n"
      "27,8\n"
      "28,24\n"
      "29,25\n"
      "30,9\n"
      "31,9\n"
      "32,10\n"
      "33,10\n"
      "34,10\n"
      "35,10\n"
      "36,11\n"
      "37,12\n"
      "38,13\n"
      "39,25\n"
      "40,14\n"
      "41,24\n"
      "42,26\n"
      "43,15\n"
      "44,15\n"
      "45,15\n"
      "46,15\n"
      "47,16\n"
      "48,16\n"
      "49,17\n"
      "50,17\n"
      "51,26\n"
      "52,18\n"
      "53,18\n"
      "54,19\n"
      "55,20\n"
      "56,25\n"
      "57,21\n"
      "58,21\n"
      "59,27\n"
      "60,21\n"
      "61,22\n"
      "62,22\n"
      "63,27\n"
      "64,25\n"
      "65,26\n"
      "66,25\n"
      "67,27\n"
      "68,26\n"
      "69,26\n"
      "70,28\n"
      "71,28\n"
      "72,27\n"
      "73,29\n"
      "74,28\n"
      "75,30\n"
      "76,28\n"
      "77,30\n"
      "78,29\n"
      "79,31\n";
  }
  if (policy == "coflow.sebf") {
    return
      "flow_id,round\n"
      "0,1\n"
      "1,1\n"
      "2,3\n"
      "3,3\n"
      "4,3\n"
      "5,3\n"
      "6,3\n"
      "7,4\n"
      "8,4\n"
      "9,5\n"
      "10,5\n"
      "11,5\n"
      "12,5\n"
      "13,6\n"
      "14,6\n"
      "15,7\n"
      "16,7\n"
      "17,9\n"
      "18,9\n"
      "19,10\n"
      "20,24\n"
      "21,11\n"
      "22,12\n"
      "23,24\n"
      "24,12\n"
      "25,12\n"
      "26,24\n"
      "27,25\n"
      "28,25\n"
      "29,13\n"
      "30,25\n"
      "31,13\n"
      "32,13\n"
      "33,14\n"
      "34,26\n"
      "35,14\n"
      "36,14\n"
      "37,24\n"
      "38,26\n"
      "39,14\n"
      "40,26\n"
      "41,15\n"
      "42,27\n"
      "43,15\n"
      "44,17\n"
      "45,17\n"
      "46,18\n"
      "47,18\n"
      "48,18\n"
      "49,19\n"
      "50,20\n"
      "51,22\n"
      "52,22\n"
      "53,25\n"
      "54,27\n"
      "55,22\n"
      "56,27\n"
      "57,23\n"
      "58,28\n"
      "59,24\n"
      "60,27\n"
      "61,25\n"
      "62,28\n"
      "63,29\n"
      "64,27\n"
      "65,28\n"
      "66,30\n"
      "67,29\n"
      "68,28\n"
      "69,29\n"
      "70,29\n"
      "71,27\n"
      "72,28\n"
      "73,30\n"
      "74,28\n"
      "75,30\n"
      "76,31\n"
      "77,31\n"
      "78,29\n";
  }
  ADD_FAILURE() << "no golden for " << policy;
  return "";
}

}  // namespace
}  // namespace flowsched
