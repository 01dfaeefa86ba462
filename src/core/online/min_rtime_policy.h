// MinRTime (paper §5.2.1): maximum-weight matching with edge weight equal to
// the flow's waiting time — older flows get priority, which controls the
// maximum response time.
#ifndef FLOWSCHED_CORE_ONLINE_MIN_RTIME_POLICY_H_
#define FLOWSCHED_CORE_ONLINE_MIN_RTIME_POLICY_H_

#include "core/online/policy.h"
#include "graph/expansion.h"
#include "graph/max_weight_matching.h"

namespace flowsched {

class MinRTimePolicy : public SchedulingPolicy {
 public:
  std::string_view name() const override { return "minrtime"; }
  bool RequiresUnitDemands() const override { return true; }
  void SelectFlowsInto(const SwitchSpec& sw, Round t,
                       std::span<const PendingFlow> pending,
                       std::vector<int>* picked) override;

 private:
  BacklogGraphBuilder builder_;
  MaxWeightMatcher matcher_;
  std::vector<double> weight_;
};

}  // namespace flowsched

#endif  // FLOWSCHED_CORE_ONLINE_MIN_RTIME_POLICY_H_
