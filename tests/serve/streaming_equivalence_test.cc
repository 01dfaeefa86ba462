// The determinism contract of src/serve/: on the same finite input, the
// streaming simulator must realize the byte-identical schedule and the
// exact same aggregates as batch Simulate() — for flow-level and
// coflow-aware policies, through both the in-memory replay source and the
// line-at-a-time trace source. These are the golden tests ISSUE'd to lock
// the streaming rewrite to the batch loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "api/instance_source.h"
#include "api/stream_source.h"
#include "coflow/coflow_metrics.h"
#include "core/online/simulator.h"
#include "model/coflow.h"
#include "model/trace_io.h"
#include "serve/daemon.h"
#include "serve/stream_sources.h"
#include "serve/streaming_simulator.h"

namespace flowsched {
namespace {

// Rebuilds a Schedule from captured "MATCH <t> <id>..." lines.
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
      EXPECT_GE(id, 0);
      EXPECT_LT(id, num_flows);
      EXPECT_FALSE(schedule.IsAssigned(id)) << "flow matched twice: " << id;
      schedule.Assign(id, t);
    }
  }
  return schedule;
}

std::string ScheduleBytes(const Schedule& schedule) {
  std::ostringstream out;
  WriteScheduleCsv(schedule, out);
  return out.str();
}

struct StreamRun {
  StreamingSummary summary;
  Schedule schedule;
};

StreamRun RunStreaming(ArrivalSource& source, const std::string& policy,
                       int num_flows) {
  std::string error;
  const auto p = MakeServePolicy(policy, &error);
  EXPECT_NE(p, nullptr) << error;
  std::ostringstream match;
  StreamingOptions options;
  options.match_out = &match;
  StreamingSimulator sim(source.sw(), *p, options);
  StreamRun run;
  run.summary = sim.Run(source);
  run.schedule = ScheduleFromMatchLines(match.str(), num_flows);
  return run;
}

// The wire path flowsched_serve takes for ARRIVE lines followed by TICK:
// each round's arrivals are Inject()ed under their batch ids (admission
// order: by release, stable by flow id), then the round is Step()ped.
StreamRun RunWire(const Instance& instance, const std::string& policy) {
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

// Batch-runs `policy` on `instance` and requires the streaming run to match
// it exactly: schedule bytes, round count, and every exact aggregate.
void ExpectStreamingMatchesBatch(const Instance& instance,
                                 const std::string& policy,
                                 const StreamRun& run) {
  std::string error;
  const auto batch_policy = MakeServePolicy(policy, &error);
  ASSERT_NE(batch_policy, nullptr) << error;
  const SimulationResult batch = Simulate(instance, *batch_policy);

  EXPECT_FALSE(run.summary.source_error) << run.summary.error;
  EXPECT_FALSE(run.summary.truncated);
  EXPECT_EQ(run.summary.flows, instance.num_flows());
  EXPECT_EQ(run.summary.rounds, batch.rounds);
  EXPECT_EQ(run.summary.peak_backlog, batch.peak_backlog);
  // Responses are small integers, so the double sums are exact and
  // order-independent — compare with ==, not a tolerance.
  EXPECT_EQ(run.summary.total_response, batch.metrics.total_response);
  EXPECT_EQ(run.summary.max_response, batch.metrics.max_response);
  EXPECT_EQ(run.summary.avg_port_utilization, batch.avg_port_utilization);

  EXPECT_EQ(ScheduleBytes(run.schedule), ScheduleBytes(batch.schedule));

  // CCT totals against the batch coflow metrics (singleton groups for
  // untagged flows, matching model/coflow.h).
  const CoflowSet groups(batch.realized);
  const CoflowMetrics cct =
      ComputeCoflowMetrics(batch.realized, groups, batch.schedule);
  EXPECT_EQ(run.summary.coflows, static_cast<long long>(cct.cct.size()));
  EXPECT_EQ(run.summary.total_cct, cct.total_cct);
  EXPECT_EQ(run.summary.max_cct, cct.max_cct);
}

Instance MustLoad(const std::string& spec) {
  std::string error;
  const auto instance = LoadInstance(spec, &error);
  EXPECT_TRUE(instance.has_value()) << error;
  return *instance;
}

// One spec x policy through the replay source.
void CheckReplayPath(const std::string& spec, const std::string& policy) {
  SCOPED_TRACE(spec + " / " + policy + " / replay");
  const Instance instance = MustLoad(spec);
  InstanceStreamSource source(instance);
  const StreamRun run =
      RunStreaming(source, policy, instance.num_flows());
  ExpectStreamingMatchesBatch(instance, policy, run);
}

// Same, but the stream is parsed row by row from CSV text.
void CheckTracePath(const std::string& spec, const std::string& policy) {
  SCOPED_TRACE(spec + " / " + policy + " / trace");
  const Instance instance = MustLoad(spec);
  std::ostringstream csv;
  WriteInstanceCsv(instance, csv);
  std::istringstream in(csv.str());
  TraceStreamSource source(in);
  ASSERT_TRUE(source.ok()) << source.error();
  const StreamRun run =
      RunStreaming(source, policy, instance.num_flows());
  ExpectStreamingMatchesBatch(instance, policy, run);
}

// Same, but every arrival is injected through the wire-mode API.
void CheckWirePath(const std::string& spec, const std::string& policy) {
  SCOPED_TRACE(spec + " / " + policy + " / wire");
  const Instance instance = MustLoad(spec);
  ExpectStreamingMatchesBatch(instance, policy, RunWire(instance, policy));
}

// Specs sized to drain with idle gaps in the middle (low load) and
// sustained backlog (high load). Matching-based policies need dmax=1.
constexpr char kPoissonUnit[] =
    "poisson:ports=8,cap=2,load=0.9,rounds=120,dmax=1,seed=11";
constexpr char kPoissonHeavy[] =
    "poisson:ports=8,cap=2,load=1.1,rounds=80,dmax=3,seed=5";
constexpr char kPoissonSparse[] =
    "poisson:ports=6,load=0.15,rounds=200,seed=3";
constexpr char kCoflows[] =
    "coflow:ports=8,cap=2,load=0.8,rounds=100,width=4,skew=0.6,seed=9";

TEST(StreamingEquivalenceTest, SrptReplay) {
  CheckReplayPath(kPoissonHeavy, "online.srpt");
  CheckReplayPath(kPoissonSparse, "online.srpt");
}

TEST(StreamingEquivalenceTest, SrptTrace) {
  CheckTracePath(kPoissonHeavy, "online.srpt");
  CheckTracePath(kPoissonSparse, "online.srpt");
}

TEST(StreamingEquivalenceTest, MaxWeightReplay) {
  CheckReplayPath(kPoissonUnit, "online.maxweight");
}

TEST(StreamingEquivalenceTest, MaxWeightTrace) {
  CheckTracePath(kPoissonUnit, "online.maxweight");
}

TEST(StreamingEquivalenceTest, SebfReplay) {
  // The coflow instance exercises group retirement + the seq tie-break in
  // CoflowBacklogStats: slot recycling must not change SEBF's ranking.
  CheckReplayPath(kCoflows, "coflow.sebf");
  CheckReplayPath(kPoissonHeavy, "coflow.sebf");
}

TEST(StreamingEquivalenceTest, SebfTrace) {
  CheckTracePath(kCoflows, "coflow.sebf");
}

TEST(StreamingEquivalenceTest, CoflowFifoReplay) {
  CheckReplayPath(kCoflows, "coflow.fifo");
}

// coflow.maxweight through streaming exercises the Hungarian kernel under
// RetireFlows recycling: retired group slots perturb the pending order
// round over round, and the matcher must still realize the byte-identical
// schedule batch Simulate() produces.
TEST(StreamingEquivalenceTest, CoflowMaxWeightReplay) {
  CheckReplayPath(kCoflows, "coflow.maxweight");
  CheckReplayPath(kPoissonUnit, "coflow.maxweight");
}

TEST(StreamingEquivalenceTest, CoflowMaxWeightTrace) {
  CheckTracePath(kCoflows, "coflow.maxweight");
}

// The wire path (Inject per arrival, Step per round) walks idle rounds one
// by one instead of fast-forwarding them, and must still land on batch's
// schedule, round count and aggregates: with sustained backlog and with
// idle gaps between sparse arrivals.
TEST(StreamingEquivalenceTest, SrptWire) {
  CheckWirePath(kPoissonHeavy, "online.srpt");
  CheckWirePath(kPoissonSparse, "online.srpt");
}

TEST(StreamingEquivalenceTest, SebfWire) {
  CheckWirePath(kCoflows, "coflow.sebf");
}

// The generator sources must *also* reproduce batch exactly: the per-round
// draw code is shared (AppendPoissonRound / AppendCoflowRound), so the RNG
// consumption sequence cannot drift.
TEST(StreamingEquivalenceTest, PoissonGeneratorSourceMatchesBatch) {
  const Instance instance = MustLoad(kPoissonHeavy);
  std::string error;
  const auto source = MakeStreamSource(kPoissonHeavy, &error);
  ASSERT_NE(source, nullptr) << error;
  const StreamRun run =
      RunStreaming(*source, "online.srpt", instance.num_flows());
  ExpectStreamingMatchesBatch(instance, "online.srpt", run);
}

TEST(StreamingEquivalenceTest, CoflowGeneratorSourceMatchesBatch) {
  const Instance instance = MustLoad(kCoflows);
  std::string error;
  const auto source = MakeStreamSource(kCoflows, &error);
  ASSERT_NE(source, nullptr) << error;
  const StreamRun run =
      RunStreaming(*source, "coflow.sebf", instance.num_flows());
  ExpectStreamingMatchesBatch(instance, "coflow.sebf", run);
}

// The realistic-traffic generator rides the same contract: one shared
// AppendTrafficRound, one RNG stream, so the cdf: streaming source must
// reproduce the cdf: batch instance exactly — the ISSUE 9 golden.
TEST(StreamingEquivalenceTest, CdfGeneratorSourceMatchesBatch) {
  constexpr char kCdf[] =
      "cdf:dist=websearch,ports=12,load=0.8,rounds=80,seed=21";
  const Instance instance = MustLoad(kCdf);
  ASSERT_GT(instance.num_flows(), 0);
  std::string error;
  const auto source = MakeStreamSource(kCdf, &error);
  ASSERT_NE(source, nullptr) << error;
  const StreamRun run =
      RunStreaming(*source, "online.srpt", instance.num_flows());
  ExpectStreamingMatchesBatch(instance, "online.srpt", run);
}

TEST(StreamingEquivalenceTest, CdfCoflowGeneratorSourceMatchesBatch) {
  constexpr char kCdfCoflows[] =
      "cdf:dist=fbhdp,ports=10,load=0.7,rounds=60,width=4,skew=0.6,seed=33";
  const Instance instance = MustLoad(kCdfCoflows);
  ASSERT_GT(instance.num_flows(), 0);
  std::string error;
  const auto source = MakeStreamSource(kCdfCoflows, &error);
  ASSERT_NE(source, nullptr) << error;
  const StreamRun run =
      RunStreaming(*source, "coflow.sebf", instance.num_flows());
  ExpectStreamingMatchesBatch(instance, "coflow.sebf", run);
}

TEST(StreamingEquivalenceTest, TruncationReportsHonestly) {
  const Instance instance = MustLoad(kPoissonHeavy);
  InstanceStreamSource source(instance);
  std::string error;
  const auto policy = MakeServePolicy("online.srpt", &error);
  ASSERT_NE(policy, nullptr) << error;
  StreamingOptions options;
  options.max_rounds = 10;
  StreamingSimulator sim(source.sw(), *policy, options);
  const StreamingSummary summary = sim.Run(source);
  EXPECT_TRUE(summary.truncated);
  EXPECT_EQ(summary.rounds, 10);
  EXPECT_LT(summary.flows, summary.arrived);
}

}  // namespace
}  // namespace flowsched
