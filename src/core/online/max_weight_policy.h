// MaxWeight (paper §5.2.1): maximum-weight matching with edge weight equal
// to the sum of the queue lengths at its two endpoints — drains the most
// congested ports first. The classic stability policy from switch scheduling.
//
// Those edge weights are vertex weights (each port's queue length), so every
// round is one exact solve of graph/vertex_weight_matching.h's O(V·E)
// matroid-greedy matcher, not a Hungarian solve.
#ifndef FLOWSCHED_CORE_ONLINE_MAX_WEIGHT_POLICY_H_
#define FLOWSCHED_CORE_ONLINE_MAX_WEIGHT_POLICY_H_

#include "core/online/policy.h"
#include "graph/expansion.h"
#include "graph/vertex_weight_matching.h"

namespace flowsched {

class MaxWeightPolicy : public SchedulingPolicy {
 public:
  std::string_view name() const override { return "maxweight"; }
  bool RequiresUnitDemands() const override { return true; }
  void SelectFlowsInto(const SwitchSpec& sw, Round t,
                       std::span<const PendingFlow> pending,
                       std::vector<int>* picked) override;
  PolicyMatchingStats matching_stats() const override;

 private:
  // Graph, matcher and weight scratch persist across rounds: steady state
  // allocates nothing.
  BacklogGraphBuilder builder_;
  VertexWeightMatcher matcher_;
  std::int64_t exact_solves_ = 0;
  std::vector<int> in_queue_;
  std::vector<int> out_queue_;
  std::vector<int> left_weight_;  // Per replica vertex.
  std::vector<int> right_weight_;
};

}  // namespace flowsched

#endif  // FLOWSCHED_CORE_ONLINE_MAX_WEIGHT_POLICY_H_
