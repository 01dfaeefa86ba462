// A forwarding SchedulingPolicy decorator for the traced run: every
// SelectFlowsInto call is wrapped in a span and counted, and every other
// virtual is forwarded unchanged, so the round loop it is handed to
// (batch Simulate or the StreamingSimulator) behaves exactly as with the
// wrapped policy.
#ifndef PERFBENCH_TRACED_POLICY_H_
#define PERFBENCH_TRACED_POLICY_H_

#include <cstdint>

#include "core/online/policy.h"
#include "span_trace.h"

namespace perfbench {

class TracedPolicy : public flowsched::SchedulingPolicy {
 public:
  // `inner` and `trace` must outlive the decorator; spans are named
  // `span_name` (a string literal).
  TracedPolicy(flowsched::SchedulingPolicy& inner, SpanTrace& trace,
               const char* span_name)
      : inner_(inner), trace_(trace), span_name_(span_name) {}

  std::string_view name() const override { return inner_.name(); }
  void SelectFlowsInto(const flowsched::SwitchSpec& sw, flowsched::Round t,
                       std::span<const flowsched::PendingFlow> pending,
                       std::vector<int>* picked) override;
  void Reset() override { inner_.Reset(); }
  bool RequiresUnitDemands() const override {
    return inner_.RequiresUnitDemands();
  }
  void RetireFlows(std::span<const flowsched::FlowId> completed_untagged,
                   std::span<const flowsched::CoflowId> drained_groups)
      override {
    inner_.RetireFlows(completed_untagged, drained_groups);
  }
  flowsched::PolicyMatchingStats matching_stats() const override {
    return inner_.matching_stats();
  }

  std::int64_t calls() const { return calls_; }
  // Summed backlog size handed to the policy over all calls.
  std::int64_t backlog_total() const { return backlog_total_; }

 private:
  flowsched::SchedulingPolicy& inner_;
  SpanTrace& trace_;
  const char* span_name_;
  std::int64_t calls_ = 0;
  std::int64_t backlog_total_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_POLICY_H_
