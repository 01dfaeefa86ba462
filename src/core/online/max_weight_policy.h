// MaxWeight (paper §5.2.1): maximum-weight matching with edge weight equal
// to the sum of the queue lengths at its two endpoints — drains the most
// congested ports first. The classic stability policy from switch scheduling.
//
// Those edge weights are vertex weights (each port's queue length), so the
// exact path is graph/vertex_weight_matching.h's O(V·E) matroid-greedy
// matcher, not a Hungarian solve. MatchingOptions::approx_eps > 0 selects
// the eps-approximate auction matcher instead (opt-in; schedules may
// differ within the eps bound).
#ifndef FLOWSCHED_CORE_ONLINE_MAX_WEIGHT_POLICY_H_
#define FLOWSCHED_CORE_ONLINE_MAX_WEIGHT_POLICY_H_

#include "core/online/policy.h"
#include "graph/auction_matching.h"
#include "graph/vertex_weight_matching.h"

namespace flowsched {

class MaxWeightPolicy : public SchedulingPolicy {
 public:
  explicit MaxWeightPolicy(const MatchingOptions& matching = {})
      : matching_(matching) {}

  std::string_view name() const override { return "maxweight"; }
  bool RequiresUnitDemands() const override { return true; }
  void SelectFlowsInto(const SwitchSpec& sw, Round t,
                       std::span<const PendingFlow> pending,
                       std::vector<int>* picked) override;
  // Drops the auction's cross-round prices so back-to-back simulations are
  // independent.
  void Reset() override;
  PolicyMatchingStats matching_stats() const override;

 private:
  MatchingOptions matching_;
  BacklogGraphBuilder builder_;  // Graph, matcher and weight scratch persist
  VertexWeightMatcher matcher_;  // across rounds: steady state allocates
  AuctionMatcher auction_;       // nothing.
  std::int64_t exact_solves_ = 0;
  std::vector<int> in_queue_;
  std::vector<int> out_queue_;
  std::vector<double> left_weight_;   // Per replica vertex (exact path).
  std::vector<double> right_weight_;
  std::vector<double> weight_;        // Per edge (auction path only).
};

}  // namespace flowsched

#endif  // FLOWSCHED_CORE_ONLINE_MAX_WEIGHT_POLICY_H_
