#include "serve/stream_sources.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "api/stream_source.h"
#include "model/trace_io.h"
#include "workload/coflow_gen.h"
#include "workload/poisson.h"

namespace flowsched {
namespace {

// Drains a source through the pull interface the streaming simulator uses:
// arrivals per round until Exhausted, with the fast-forward honored.
std::vector<Flow> Drain(ArrivalSource& source, Round limit = 100000) {
  std::vector<Flow> flows;
  std::vector<Flow> round;
  for (Round t = 0; t < limit; ++t) {
    round.clear();
    source.ArrivalsInto(t, {}, &round);
    EXPECT_TRUE(source.ok()) << source.error();
    for (Flow f : round) {
      f.release = t;  // What the simulator records.
      flows.push_back(f);
    }
    if (source.Exhausted(t + 1)) break;
    const Round next = source.NextArrivalRound(t + 1);
    EXPECT_GE(next, t + 1);
    if (next > t + 1) t = next - 1;
  }
  return flows;
}

void ExpectSameFlows(const std::vector<Flow>& got,
                     const std::vector<Flow>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].src, want[i].src) << "flow " << i;
    EXPECT_EQ(got[i].dst, want[i].dst) << "flow " << i;
    EXPECT_EQ(got[i].demand, want[i].demand) << "flow " << i;
    EXPECT_EQ(got[i].release, want[i].release) << "flow " << i;
    EXPECT_EQ(got[i].coflow, want[i].coflow) << "flow " << i;
  }
}

TEST(StreamSourcesTest, PoissonSourceReplaysBatchGeneratorExactly) {
  PoissonConfig config;
  config.num_inputs = config.num_outputs = 6;
  config.port_capacity = 2;
  config.mean_arrivals_per_round = 4.0;
  config.num_rounds = 50;
  config.max_demand = 3;
  config.seed = 21;
  const Instance batch = GeneratePoisson(config);
  PoissonStreamSource source(config, /*horizon=*/50);
  ExpectSameFlows(Drain(source), batch.flows());
}

TEST(StreamSourcesTest, CoflowSourceReplaysBatchGeneratorExactly) {
  CoflowGenConfig config;
  config.num_inputs = config.num_outputs = 8;
  config.port_capacity = 2;
  config.mean_coflows_per_round = 1.0;
  config.num_rounds = 40;
  config.min_width = 2;
  config.max_width = 5;
  config.width_skew = 0.6;
  config.max_demand = 2;
  config.seed = 13;
  const Instance batch = GenerateCoflows(config);
  CoflowStreamSource source(config, /*horizon=*/40);
  ExpectSameFlows(Drain(source), batch.flows());
}

TEST(StreamSourcesTest, SparseStreamFastForwardsWithoutChangingArrivals) {
  PoissonConfig config;
  config.num_inputs = config.num_outputs = 4;
  config.port_capacity = 1;
  config.mean_arrivals_per_round = 0.05;  // Mostly empty rounds.
  config.num_rounds = 400;
  config.max_demand = 1;
  config.seed = 2;
  const Instance batch = GeneratePoisson(config);
  PoissonStreamSource source(config, /*horizon=*/400);
  ExpectSameFlows(Drain(source), batch.flows());
}

TEST(StreamSourcesTest, UnboundedSourceNeverExhausts) {
  PoissonConfig config;
  config.num_inputs = config.num_outputs = 4;
  config.port_capacity = 1;
  config.mean_arrivals_per_round = 1.0;
  config.num_rounds = 1;  // Ignored by the streaming path.
  config.seed = 4;
  PoissonStreamSource source(config, /*horizon=*/-1);
  std::vector<Flow> round;
  long long total = 0;
  for (Round t = 0; t < 500; ++t) {
    EXPECT_FALSE(source.Exhausted(t));
    round.clear();
    source.ArrivalsInto(t, {}, &round);
    total += static_cast<long long>(round.size());
  }
  EXPECT_GT(total, 300);  // ~500 expected arrivals.
}

TEST(StreamSourcesTest, InstanceSourceSortsByReleaseStably) {
  Instance instance(SwitchSpec::Uniform(3, 3, 1), {});
  instance.AddFlow(0, 0, 1, 5);
  instance.AddFlow(1, 1, 1, 0);
  instance.AddFlow(2, 2, 1, 5);
  instance.AddFlow(0, 1, 1, 0);
  InstanceStreamSource source(instance);
  const std::vector<Flow> flows = Drain(source);
  ASSERT_EQ(flows.size(), 4u);
  // Round 0: flows 1 and 3 in original order; round 5: flows 0 and 2.
  EXPECT_EQ(flows[0].src, 1);
  EXPECT_EQ(flows[1].src, 0);
  EXPECT_EQ(flows[1].dst, 1);
  EXPECT_EQ(flows[2].src, 0);
  EXPECT_EQ(flows[3].src, 2);
  EXPECT_EQ(flows[2].release, 5);
}

TEST(StreamSourcesTest, TraceSourceStreamsRowsWithCoflowTags) {
  Instance instance(SwitchSpec({2, 2}, {2, 2}), {});
  instance.AddFlow(0, 1, 1, 0, 7);
  instance.AddFlow(1, 0, 2, 1, 7);
  instance.AddFlow(1, 1, 1, 3);
  std::ostringstream csv;
  WriteInstanceCsv(instance, csv);
  std::istringstream in(csv.str());
  TraceStreamSource source(in);
  ASSERT_TRUE(source.ok()) << source.error();
  EXPECT_EQ(source.sw(), instance.sw());
  ExpectSameFlows(Drain(source), instance.flows());
}

TEST(StreamSourcesTest, TraceSourceRejectsUnsortedReleases) {
  const std::string content =
      "input_capacities\n1,1\noutput_capacities\n1,1\n"
      "src,dst,demand,release\n"
      "0,0,1,4\n"
      "1,1,1,2\n";  // Release goes backwards: not streamable.
  std::istringstream in(content);
  TraceStreamSource source(in);
  std::vector<Flow> round;
  for (Round t = 0; t <= 4 && source.ok(); ++t) {
    source.ArrivalsInto(t, {}, &round);
  }
  EXPECT_FALSE(source.ok());
  EXPECT_NE(source.error().find("line 7"), std::string::npos)
      << source.error();
  EXPECT_NE(source.error().find("sorted by release"), std::string::npos);
}

TEST(StreamSourcesTest, TraceSourceReportsMalformedHeader) {
  std::istringstream in("definitely,not,a,trace\n");
  TraceStreamSource source(in);
  EXPECT_FALSE(source.ok());
  EXPECT_FALSE(source.error().empty());
}

TEST(MakeStreamSourceTest, BuildsGeneratorSources) {
  std::string error;
  EXPECT_NE(MakeStreamSource("poisson:ports=4,load=0.5,rounds=10", &error),
            nullptr)
      << error;
  EXPECT_NE(
      MakeStreamSource("coflow:ports=4,load=0.5,rounds=10,width=3", &error),
      nullptr)
      << error;
}

TEST(MakeStreamSourceTest, InfiniteRoundsNeedPositiveLoad) {
  std::string error;
  EXPECT_NE(MakeStreamSource("poisson:ports=4,load=0.5,rounds=inf", &error),
            nullptr)
      << error;
  EXPECT_EQ(MakeStreamSource("poisson:ports=4,load=0,rounds=inf", &error),
            nullptr);
  EXPECT_NE(error.find("load > 0"), std::string::npos) << error;
}

TEST(MakeStreamSourceTest, RejectsBatchOnlyGenerators) {
  std::string error;
  EXPECT_EQ(MakeStreamSource("shuffle:ports=8", &error), nullptr);
  EXPECT_NE(error.find("batch-only"), std::string::npos) << error;
}

TEST(MakeStreamSourceTest, RejectsUnknownKeysAndMissingFiles) {
  std::string error;
  EXPECT_EQ(MakeStreamSource("poisson:ports=4,bogus=1", &error), nullptr);
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
  EXPECT_EQ(MakeStreamSource("/no/such/trace.csv", &error), nullptr);
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

}  // namespace
}  // namespace flowsched
