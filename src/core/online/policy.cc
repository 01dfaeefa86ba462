#include "core/online/policy.h"

#include "core/online/max_card_policy.h"
#include "core/online/max_weight_policy.h"
#include "core/online/min_rtime_policy.h"
#include "core/online/simple_policies.h"
#include "core/online/srpt_policy.h"
#include "util/check.h"

namespace flowsched {

std::vector<int> SchedulingPolicy::SelectFlows(
    const SwitchSpec& sw, Round t, std::span<const PendingFlow> pending) {
  std::vector<int> picked;
  SelectFlowsInto(sw, t, pending, &picked);
  return picked;
}

std::unique_ptr<SchedulingPolicy> MakePolicy(std::string_view name,
                                             std::uint64_t seed) {
  if (name == "maxcard") return std::make_unique<MaxCardPolicy>();
  if (name == "minrtime") return std::make_unique<MinRTimePolicy>();
  if (name == "maxweight") return std::make_unique<MaxWeightPolicy>();
  if (name == "fifo") return std::make_unique<FifoGreedyPolicy>();
  if (name == "random") return std::make_unique<RandomPolicy>(seed);
  if (name == "srpt") return std::make_unique<SrptPolicy>();
  if (name == "hybrid") return std::make_unique<HybridPolicy>();
  FS_CHECK_MSG(false, "unknown policy: " << std::string(name));
  return nullptr;
}

std::vector<std::string> AllPolicyNames() {
  return {"maxcard", "minrtime", "maxweight", "fifo", "random", "srpt",
          "hybrid"};
}

}  // namespace flowsched
