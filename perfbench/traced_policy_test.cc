// The decorator must be invisible to the round loops: every virtual the
// benchmark does not time is forwarded, and a traced run schedules exactly
// as an untraced one.
#include "traced_policy.h"

#include <gtest/gtest.h>

#include "api/instance_source.h"
#include "coflow/coflow_policies.h"
#include "core/online/simulator.h"

namespace perfbench {
namespace {

using flowsched::CoflowId;
using flowsched::FlowId;
using flowsched::PendingFlow;
using flowsched::PolicyMatchingStats;
using flowsched::SchedulingPolicy;

// Records what reaches it and answers with fixed values.
class RecordingPolicy : public SchedulingPolicy {
 public:
  std::string_view name() const override { return "recording"; }
  void SelectFlowsInto(const flowsched::SwitchSpec&, flowsched::Round,
                       std::span<const PendingFlow> pending,
                       std::vector<int>* picked) override {
    picked->assign(1, static_cast<int>(pending.size()) - 1);
  }
  void Reset() override { ++resets; }
  bool RequiresUnitDemands() const override { return true; }
  void RetireFlows(std::span<const FlowId> flows,
                   std::span<const CoflowId> groups) override {
    retired_flows.assign(flows.begin(), flows.end());
    retired_groups.assign(groups.begin(), groups.end());
  }
  PolicyMatchingStats matching_stats() const override {
    PolicyMatchingStats stats;
    stats.matcher_solves = 7;
    stats.matcher_cache_hits = 3;
    stats.matcher_reused_rows = 11;
    return stats;
  }

  int resets = 0;
  std::vector<FlowId> retired_flows;
  std::vector<CoflowId> retired_groups;
};

TEST(TracedPolicy, ForwardsEveryVirtual) {
  RecordingPolicy inner;
  SpanTrace trace;
  TracedPolicy traced(inner, trace, "select");
  EXPECT_EQ(traced.name(), "recording");
  EXPECT_TRUE(traced.RequiresUnitDemands());
  traced.Reset();
  EXPECT_EQ(inner.resets, 1);
  const std::vector<FlowId> flows = {4, 2};
  const std::vector<CoflowId> groups = {9};
  traced.RetireFlows(flows, groups);
  EXPECT_EQ(inner.retired_flows, flows);
  EXPECT_EQ(inner.retired_groups, groups);
  const PolicyMatchingStats stats = traced.matching_stats();
  EXPECT_EQ(stats.matcher_solves, 7);
  EXPECT_EQ(stats.matcher_cache_hits, 3);
  EXPECT_EQ(stats.matcher_reused_rows, 11);

  const std::vector<PendingFlow> pending(3);
  std::vector<int> picked;
  traced.SelectFlowsInto(flowsched::SwitchSpec::Uniform(2, 2, 1), 0, pending,
                         &picked);
  EXPECT_EQ(picked, std::vector<int>{2});
  EXPECT_EQ(traced.calls(), 1);
  EXPECT_EQ(traced.backlog_total(), 3);
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_STREQ(trace.spans()[0].name, "select");
}

TEST(TracedPolicy, AnswersTheUnitDemandQueryAsEveryPolicyDoes) {
  SpanTrace trace;
  for (const std::string& name : flowsched::AllPolicyNames()) {
    const auto inner = flowsched::MakePolicy(name);
    TracedPolicy traced(*inner, trace, "select");
    EXPECT_EQ(traced.RequiresUnitDemands(), inner->RequiresUnitDemands())
        << name;
  }
  for (const std::string& name : flowsched::AllCoflowPolicyNames()) {
    const auto inner = flowsched::MakeCoflowPolicy(name);
    TracedPolicy traced(*inner, trace, "select");
    EXPECT_EQ(traced.RequiresUnitDemands(), inner->RequiresUnitDemands())
        << name;
  }
}

void ExpectSameStats(const PolicyMatchingStats& a,
                     const PolicyMatchingStats& b) {
  EXPECT_EQ(a.matcher_solves, b.matcher_solves);
  EXPECT_EQ(a.matcher_cache_hits, b.matcher_cache_hits);
  EXPECT_EQ(a.matcher_prefix_resumes, b.matcher_prefix_resumes);
  EXPECT_EQ(a.matcher_full_solves, b.matcher_full_solves);
  EXPECT_EQ(a.matcher_reused_rows, b.matcher_reused_rows);
  EXPECT_EQ(a.matcher_total_rows, b.matcher_total_rows);
}

TEST(TracedPolicy, MaxweightSchedulesAndCountsAsUntraced) {
  const auto instance =
      flowsched::LoadInstance("poisson:ports=8,load=1.0,rounds=40,seed=5");
  ASSERT_TRUE(instance.has_value());
  const auto plain = flowsched::MakePolicy("maxweight");
  const auto inner = flowsched::MakePolicy("maxweight");
  SpanTrace trace;
  TracedPolicy traced(*inner, trace, "select");
  for (int pass = 0; pass < 2; ++pass) {
    const auto want = flowsched::Simulate(*instance, *plain);
    const auto got = flowsched::Simulate(*instance, traced);
    EXPECT_EQ(got.schedule.assignments(), want.schedule.assignments());
    EXPECT_EQ(got.metrics.total_response, want.metrics.total_response);
    ExpectSameStats(traced.matching_stats(), plain->matching_stats());
    EXPECT_GT(traced.matching_stats().matcher_solves, 0);
    // Reset must clear the wrapped policy's state exactly as on the plain
    // one, so the second pass starts from the same place.
    plain->Reset();
    traced.Reset();
    ExpectSameStats(traced.matching_stats(), plain->matching_stats());
  }
  EXPECT_EQ(static_cast<std::size_t>(traced.calls()), trace.spans().size());
}

}  // namespace
}  // namespace perfbench
