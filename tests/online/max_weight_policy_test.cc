// MaxWeight's exact path is the vertex-weight matcher, not the Hungarian.
// Over whole simulations, every round's pick must weigh exactly what the
// Hungarian's maximum-weight matching weighs on the same backlog.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "core/online/max_weight_policy.h"
#include "core/online/simulator.h"
#include "graph/max_weight_matching.h"
#include "workload/poisson.h"

namespace flowsched {
namespace {

// Delegates to MaxWeightPolicy and checks each of its picks against the
// Hungarian on the same backlog graph and queue-sum weights.
class CheckedMaxWeight : public SchedulingPolicy {
 public:
  std::string_view name() const override { return "checked-maxweight"; }
  bool RequiresUnitDemands() const override { return true; }
  void SelectFlowsInto(const SwitchSpec& sw, Round t,
                       std::span<const PendingFlow> pending,
                       std::vector<int>* picked) override {
    policy_.SelectFlowsInto(sw, t, pending, picked);
    const BipartiteGraph& g = builder_.Build(sw, pending);
    std::vector<int> in_queue(sw.num_inputs(), 0);
    std::vector<int> out_queue(sw.num_outputs(), 0);
    for (const PendingFlow& f : pending) {
      ++in_queue[f.src];
      ++out_queue[f.dst];
    }
    std::vector<double> w;
    for (const PendingFlow& f : pending) {
      w.push_back(in_queue[f.src] + out_queue[f.dst]);
    }
    ASSERT_TRUE(IsMatching(g, *picked)) << "round " << t;
    EXPECT_EQ(MatchingWeight(*picked, w),
              MatchingWeight(MaxWeightMatching(g, w), w))
        << "round " << t;
    ++rounds_;
  }
  int rounds() const { return rounds_; }

 private:
  MaxWeightPolicy policy_;
  BacklogGraphBuilder builder_;
  int rounds_ = 0;
};

TEST(MaxWeightPolicyTest, EveryRoundPicksAHungarianOptimum) {
  CheckedMaxWeight policy;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    PoissonConfig cfg;
    cfg.num_inputs = 4 + static_cast<int>(seed % 5) * 4;
    cfg.num_outputs = cfg.num_inputs;
    cfg.port_capacity = 1 + static_cast<Capacity>(seed % 3);
    cfg.mean_arrivals_per_round =
        cfg.num_inputs * cfg.port_capacity * (0.8 + 0.1 * (seed % 5));
    cfg.num_rounds = 30;
    cfg.seed = seed;
    const SimulationResult r = Simulate(GeneratePoisson(cfg), policy);
    ASSERT_FALSE(r.truncated) << "seed " << seed;
  }
  EXPECT_GT(policy.rounds(), 12 * 30);
}

}  // namespace
}  // namespace flowsched
