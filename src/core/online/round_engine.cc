#include "core/online/round_engine.h"

#include "util/check.h"

namespace flowsched {

void RoundEngine::Audit(const SwitchSpec& sw,
                        std::span<const PendingFlow> pending) {
  in_load_.assign(sw.num_inputs(), 0);
  out_load_.assign(sw.num_outputs(), 0);
  used_.assign(pending.size(), 0);
  for (int i : picked_) {
    FS_CHECK_MSG(i >= 0 && i < static_cast<int>(pending.size()),
                 "policy returned an out-of-range backlog index " << i);
    FS_CHECK_MSG(!used_[i], "policy selected backlog index " << i << " twice");
    used_[i] = 1;
    in_load_[pending[i].src] += pending[i].demand;
    out_load_[pending[i].dst] += pending[i].demand;
  }
  for (PortId p = 0; p < sw.num_inputs(); ++p) {
    FS_CHECK_MSG(in_load_[p] <= sw.input_capacity(p),
                 "policy overloaded input port " << p);
  }
  for (PortId q = 0; q < sw.num_outputs(); ++q) {
    FS_CHECK_MSG(out_load_[q] <= sw.output_capacity(q),
                 "policy overloaded output port " << q);
  }
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
  std::span<const PendingFlow> pending = backlog_;
  mapped_ = scen_.degraded();
  if (mapped_) {
    // Flows touching a dead port stay backlogged and are withheld from
    // the policy; pending_map remembers each survivor's backlog slot.
    pending_.clear();
    pending_map_.clear();
    for (std::size_t i = 0; i < backlog_.size(); ++i) {
      const Flow& f = backlog_[i];
      if (scen_.IsBlocked(f.src, f.dst)) continue;
      pending_.push_back(f);
      pending_map_.push_back(static_cast<int>(i));
    }
    pending = pending_;
  }
  peak_backlog_ =
      std::max(peak_backlog_, static_cast<int>(backlog_.size()));
  if (scen_.AnyPortDown()) ++downtime_rounds_;
  if (pending.empty()) return false;
  // Selection and audit run against the round's *effective* capacities,
  // not the base spec.
  const SwitchSpec& round_sw = mapped_ ? scen_.view() : sw_;
  policy_.SelectFlowsInto(round_sw, t_, pending, &picked_);
  if (validate_) Audit(round_sw, pending);
  return true;
}

}  // namespace flowsched
