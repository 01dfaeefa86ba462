// SRPT-flavored and hybrid policies — extensions beyond the paper's three
// heuristics (§6 invites "a more thorough investigation of online
// algorithms"; the related-work section grounds SRPT for response time).
#ifndef FLOWSCHED_CORE_ONLINE_SRPT_POLICY_H_
#define FLOWSCHED_CORE_ONLINE_SRPT_POLICY_H_

#include "core/online/policy.h"
#include "core/online/simple_policies.h"
#include "graph/expansion.h"
#include "graph/max_weight_matching.h"

namespace flowsched {

// Smallest-demand-first greedy packing. Flows are scheduled whole, so the
// SRPT rule degenerates to "shortest (cheapest) first" — it maximizes the
// number of flows completed under a demand mix, echoing SPT on one machine.
// Handles general demands.
class SrptPolicy : public GreedyPackPolicyBase {
 public:
  std::string_view name() const override { return "srpt"; }
  void SelectFlowsInto(const SwitchSpec& sw, Round t,
                       std::span<const PendingFlow> pending,
                       std::vector<int>* picked) override;
};

// The compromise the paper's conclusion (§5.2.3) gestures at: a
// maximum-weight matching whose edge weight mixes MinRTime's age term with
// MaxWeight's queue-pressure term:
//   w_e = age(e) + alpha * (qlen(src) + qlen(dst)), alpha = 1/2.
// alpha = 0 would be exactly MinRTime; large alpha approaches MaxWeight.
class HybridPolicy : public SchedulingPolicy {
 public:
  std::string_view name() const override { return "hybrid"; }
  bool RequiresUnitDemands() const override { return true; }
  void SelectFlowsInto(const SwitchSpec& sw, Round t,
                       std::span<const PendingFlow> pending,
                       std::vector<int>* picked) override;

 private:
  static constexpr double kAlpha = 0.5;

  BacklogGraphBuilder builder_;
  MaxWeightMatcher matcher_;
  std::vector<int> in_queue_;
  std::vector<int> out_queue_;
  std::vector<double> weight_;
};

}  // namespace flowsched

#endif  // FLOWSCHED_CORE_ONLINE_SRPT_POLICY_H_
