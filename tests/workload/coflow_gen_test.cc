#include "workload/coflow_gen.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "model/coflow.h"

namespace flowsched {
namespace {

TEST(CoflowGenTest, DeterministicInSeed) {
  CoflowGenConfig cfg;
  cfg.num_rounds = 20;
  cfg.mean_coflows_per_round = 2.0;
  cfg.seed = 42;
  const Instance a = GenerateCoflows(cfg);
  const Instance b = GenerateCoflows(cfg);
  ASSERT_EQ(a.num_flows(), b.num_flows());
  for (FlowId e = 0; e < a.num_flows(); ++e) {
    EXPECT_EQ(a.flow(e), b.flow(e));
  }
  cfg.seed = 43;
  const Instance c = GenerateCoflows(cfg);
  EXPECT_NE(c.num_flows(), 0);
  bool differs = c.num_flows() != a.num_flows();
  for (FlowId e = 0; !differs && e < a.num_flows(); ++e) {
    differs = !(a.flow(e) == c.flow(e));
  }
  EXPECT_TRUE(differs);
}

TEST(CoflowGenTest, FlowsAreClusteredAndReleaseMonotone) {
  CoflowGenConfig cfg;
  cfg.num_rounds = 30;
  cfg.mean_coflows_per_round = 1.5;
  cfg.seed = 7;
  const Instance instance = GenerateCoflows(cfg);
  ASSERT_GT(instance.num_flows(), 0);
  EXPECT_TRUE(instance.HasCoflows());
  Round prev = 0;
  std::map<CoflowId, Round> release_of;
  for (const Flow& e : instance.flows()) {
    EXPECT_GE(e.release, prev);  // Generator emits in release order.
    prev = e.release;
    ASSERT_NE(e.coflow, kNoCoflow);
    // Clustered: every member of a coflow shares its arrival round.
    const auto [it, inserted] = release_of.emplace(e.coflow, e.release);
    if (!inserted) EXPECT_EQ(it->second, e.release);
  }
}

TEST(CoflowGenTest, WidthsStayWithinConfiguredBounds) {
  CoflowGenConfig cfg;
  cfg.num_rounds = 40;
  cfg.mean_coflows_per_round = 2.0;
  cfg.min_width = 2;
  cfg.max_width = 5;
  cfg.width_skew = 0.5;
  cfg.seed = 11;
  const Instance instance = GenerateCoflows(cfg);
  const CoflowSet coflows(instance);
  ASSERT_GT(coflows.num_tagged(), 0);
  for (int g = 0; g < coflows.num_tagged(); ++g) {
    EXPECT_GE(coflows.width(g), 2);
    EXPECT_LE(coflows.width(g), 5);
  }
}

TEST(CoflowGenTest, MeanCoflowWidthMatchesTheDistribution) {
  CoflowGenConfig cfg;
  cfg.min_width = 1;
  cfg.max_width = 3;
  cfg.width_skew = 0.5;
  // Weights 1, 0.5, 0.25 over widths 1, 2, 3 => mean 2.75 / 1.75 = 11/7.
  EXPECT_NEAR(MeanCoflowWidth(cfg), 11.0 / 7.0, 1e-12);
  cfg.width_skew = 1.0;
  EXPECT_DOUBLE_EQ(MeanCoflowWidth(cfg), 2.0);  // Uniform 1..3.
  cfg.min_width = cfg.max_width = 4;
  EXPECT_DOUBLE_EQ(MeanCoflowWidth(cfg), 4.0);
}

// The widest range an int holds: the mean is finite and computed without
// a 2^31-step loop (or signed overflow at max_width = INT_MAX).
TEST(CoflowGenTest, WidthMeanOverTheWholeIntRange) {
  constexpr int kMax = std::numeric_limits<int>::max();
  EXPECT_DOUBLE_EQ(CoflowWidthMean(1, kMax, 1.0), 1073741824.0);
  EXPECT_NEAR(CoflowWidthMean(1, kMax, 0.5), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(CoflowWidthMean(kMax, kMax, 0.5), kMax);
}

TEST(CoflowGenTest, EmpiricalWidthTracksTheConfiguredMean) {
  CoflowGenConfig cfg;
  cfg.num_rounds = 400;
  cfg.mean_coflows_per_round = 2.0;
  cfg.min_width = 1;
  cfg.max_width = 8;
  cfg.width_skew = 0.6;
  cfg.seed = 5;
  const Instance instance = GenerateCoflows(cfg);
  const CoflowSet coflows(instance);
  ASSERT_GT(coflows.num_tagged(), 100);
  const double mean_width =
      static_cast<double>(instance.num_flows()) / coflows.num_tagged();
  EXPECT_NEAR(mean_width, MeanCoflowWidth(cfg), 0.25);
}

TEST(CoflowGenTest, DemandsRespectCapAndDmax) {
  CoflowGenConfig cfg;
  cfg.port_capacity = 4;
  cfg.max_demand = 3;
  cfg.num_rounds = 20;
  cfg.mean_coflows_per_round = 2.0;
  cfg.seed = 9;
  const Instance instance = GenerateCoflows(cfg);
  Capacity dmax = 0;
  for (const Flow& e : instance.flows()) {
    EXPECT_GE(e.demand, 1);
    EXPECT_LE(e.demand, 3);
    dmax = std::max(dmax, e.demand);
  }
  EXPECT_GT(dmax, 1);  // The demand mix actually varies.
  EXPECT_FALSE(instance.ValidationError().has_value());
}

}  // namespace
}  // namespace flowsched
