#include "core/online/round_engine.h"

#include <span>

#include "util/check.h"

namespace flowsched {
namespace {

// Audits one policy selection: in-range indices, no duplicates, no port
// overloads (aborts via FS_CHECK on violation; three O(backlog + ports)
// scans). Uses ctx's scratch vectors, so it allocates nothing at steady
// state.
void ValidatePolicySelection(const SwitchSpec& sw,
                             std::span<const PendingFlow> pending,
                             std::span<const int> picked,
                             SimulationContext& ctx) {
  ctx.in_load.assign(sw.num_inputs(), 0);
  ctx.out_load.assign(sw.num_outputs(), 0);
  ctx.used.assign(pending.size(), 0);
  for (int i : picked) {
    FS_CHECK_MSG(i >= 0 && i < static_cast<int>(pending.size()),
                 "policy returned an out-of-range backlog index " << i);
    FS_CHECK_MSG(!ctx.used[i], "policy selected backlog index " << i << " twice");
    ctx.used[i] = 1;
    ctx.in_load[pending[i].src] += pending[i].demand;
    ctx.out_load[pending[i].dst] += pending[i].demand;
  }
  for (PortId p = 0; p < sw.num_inputs(); ++p) {
    FS_CHECK_MSG(ctx.in_load[p] <= sw.input_capacity(p),
                 "policy overloaded input port " << p);
  }
  for (PortId q = 0; q < sw.num_outputs(); ++q) {
    FS_CHECK_MSG(ctx.out_load[q] <= sw.output_capacity(q),
                 "policy overloaded output port " << q);
  }
}

}  // namespace

RoundEngine::RoundEngine(const SwitchSpec& sw, SchedulingPolicy& policy,
                         SimulationContext& ctx, bool validate)
    : sw_(sw), policy_(policy), ctx_(ctx), validate_(validate) {
  ctx_.Clear();
}

bool RoundEngine::BindScenario(const ScenarioScript* script,
                               const std::vector<ScenarioOp>* ops,
                               std::string* error) {
  const ScenarioScript none;
  std::string why;
  const bool bound = ops != nullptr
                         ? scen_.BindOps(*ops, sw_, &why)
                         : scen_.Bind(script != nullptr ? *script : none, sw_,
                                      &why);
  if (!bound) *error = "scenario: " + why;
  return bound;
}

double RoundEngine::AvgPortUtilization() const {
  if (t_ == 0) return 0.0;
  Capacity in_bw = 0;
  Capacity out_bw = 0;
  for (Capacity c : sw_.input_capacities()) in_bw += c;
  for (Capacity c : sw_.output_capacities()) out_bw += c;
  const auto demand = static_cast<double>(admitted_demand_);
  const auto rounds = static_cast<double>(t_);
  return 0.5 * (demand / (static_cast<double>(in_bw) * rounds) +
                demand / (static_cast<double>(out_bw) * rounds));
}

bool RoundEngine::Select() {
  scen_.AdvanceTo(t_);
  // The policy sees the backlog itself, unless the switch is degraded.
  std::span<const PendingFlow> pending = ctx_.backlog;
  mapped_ = scen_.degraded();
  if (mapped_) {
    // Flows touching a dead port stay backlogged and are withheld from
    // the policy; pending_map remembers each survivor's backlog slot.
    ctx_.pending.clear();
    ctx_.pending_map.clear();
    for (std::size_t i = 0; i < ctx_.backlog.size(); ++i) {
      const Flow& f = ctx_.backlog[i];
      if (scen_.IsBlocked(f.src, f.dst)) continue;
      ctx_.pending.push_back(f);
      ctx_.pending_map.push_back(static_cast<int>(i));
    }
    pending = ctx_.pending;
  }
  peak_backlog_ =
      std::max(peak_backlog_, static_cast<int>(ctx_.backlog.size()));
  if (scen_.AnyPortDown()) ++downtime_rounds_;
  if (pending.empty()) return false;
  // Selection and audit run against the round's *effective* capacities,
  // not the base spec.
  const SwitchSpec& round_sw = mapped_ ? scen_.view() : sw_;
  policy_.SelectFlowsInto(round_sw, t_, pending, &ctx_.picked);
  if (validate_) ValidatePolicySelection(round_sw, pending, ctx_.picked, ctx_);
  return true;
}

}  // namespace flowsched
