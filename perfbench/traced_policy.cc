#include "traced_policy.h"

namespace perfbench {

void TracedPolicy::SelectFlowsInto(
    const flowsched::SwitchSpec& sw, flowsched::Round t,
    std::span<const flowsched::PendingFlow> pending, std::vector<int>* picked) {
  ++calls_;
  backlog_total_ += static_cast<std::int64_t>(pending.size());
  ScopedSpan span(&trace_, span_name_);
  inner_.SelectFlowsInto(sw, t, pending, picked);
}

}  // namespace perfbench
