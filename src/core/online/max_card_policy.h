// MaxCard (paper §5.2.1): schedule a maximum-cardinality matching of the
// backlog graph each round — maximizes instantaneous port utilization but is
// oblivious to waiting times.
#ifndef FLOWSCHED_CORE_ONLINE_MAX_CARD_POLICY_H_
#define FLOWSCHED_CORE_ONLINE_MAX_CARD_POLICY_H_

#include "core/online/policy.h"
#include "graph/expansion.h"
#include "graph/hopcroft_karp.h"

namespace flowsched {

class MaxCardPolicy : public SchedulingPolicy {
 public:
  std::string_view name() const override { return "maxcard"; }
  bool RequiresUnitDemands() const override { return true; }
  void SelectFlowsInto(const SwitchSpec& sw, Round t,
                       std::span<const PendingFlow> pending,
                       std::vector<int>* picked) override;

 private:
  BacklogGraphBuilder builder_;  // Graph + solver scratch persist across
  HopcroftKarpSolver matcher_;   // rounds: steady state allocates nothing.
};

}  // namespace flowsched

#endif  // FLOWSCHED_CORE_ONLINE_MAX_CARD_POLICY_H_
