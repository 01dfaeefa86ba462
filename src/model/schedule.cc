#include "model/schedule.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.h"

namespace flowsched {

Capacity CapacityAllowance::Allowed(Capacity base) const {
  FS_CHECK_GE(factor, 0.0);
  const double scaled = std::floor(static_cast<double>(base) * factor + 1e-9);
  return static_cast<Capacity>(scaled) + additive;
}

SwitchSpec AugmentSwitch(const SwitchSpec& sw,
                         const CapacityAllowance& allowance) {
  std::vector<Capacity> in(sw.num_inputs());
  std::vector<Capacity> out(sw.num_outputs());
  for (PortId p = 0; p < sw.num_inputs(); ++p) {
    in[p] = allowance.Allowed(sw.input_capacity(p));
    FS_CHECK_GE(in[p], 1);
  }
  for (PortId q = 0; q < sw.num_outputs(); ++q) {
    out[q] = allowance.Allowed(sw.output_capacity(q));
    FS_CHECK_GE(out[q], 1);
  }
  return SwitchSpec(std::move(in), std::move(out));
}

Capacity PortLoads::MaxOverload(const SwitchSpec& sw) const {
  Capacity worst = 0;
  for (PortId p = 0; p < sw.num_inputs(); ++p) {
    for (Capacity load : input[p]) {
      worst = std::max(worst, load - sw.input_capacity(p));
    }
  }
  for (PortId q = 0; q < sw.num_outputs(); ++q) {
    for (Capacity load : output[q]) {
      worst = std::max(worst, load - sw.output_capacity(q));
    }
  }
  return std::max<Capacity>(worst, 0);
}

void Schedule::Assign(FlowId e, Round t) {
  FS_CHECK(e >= 0 && e < num_flows());
  FS_CHECK_GE(t, 0);
  assigned_[e] = t;
}

void Schedule::Unassign(FlowId e) {
  FS_CHECK(e >= 0 && e < num_flows());
  assigned_[e] = kUnassigned;
}

Round Schedule::Makespan() const {
  Round last = -1;
  for (Round t : assigned_) last = std::max(last, t);
  return last + 1;
}

bool Schedule::AllAssigned() const {
  return std::all_of(assigned_.begin(), assigned_.end(),
                     [](Round t) { return t != kUnassigned; });
}

PortLoads Schedule::ComputeLoads(const Instance& instance) const {
  FS_CHECK_EQ(num_flows(), instance.num_flows());
  PortLoads loads;
  loads.horizon = Makespan();
  loads.input.assign(instance.sw().num_inputs(),
                     std::vector<Capacity>(loads.horizon, 0));
  loads.output.assign(instance.sw().num_outputs(),
                      std::vector<Capacity>(loads.horizon, 0));
  for (const Flow& e : instance.flows()) {
    const Round t = assigned_[e.id];
    if (t == kUnassigned) continue;
    loads.input[e.src][t] += e.demand;
    loads.output[e.dst][t] += e.demand;
  }
  return loads;
}

std::optional<std::string> Schedule::ValidationError(
    const Instance& instance, const CapacityAllowance& allowance) const {
  FS_CHECK_EQ(num_flows(), instance.num_flows());
  // Plain comparisons per flow and per (port, round); the message stream is
  // built only on the failing branch.
  const auto error = [](const auto&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    return std::optional<std::string>(os.str());
  };
  for (const Flow& e : instance.flows()) {
    const Round t = assigned_[e.id];
    if (t == kUnassigned) return error("flow ", e.id, " is unassigned");
    if (t < e.release) {
      return error("flow ", e.id, " scheduled at round ", t,
                   " before its release ", e.release);
    }
  }
  const PortLoads loads = ComputeLoads(instance);
  const SwitchSpec& sw = instance.sw();
  for (PortId p = 0; p < sw.num_inputs(); ++p) {
    const Capacity allowed = allowance.Allowed(sw.input_capacity(p));
    for (Round t = 0; t < loads.horizon; ++t) {
      if (loads.input[p][t] > allowed) {
        return error("input port ", p, " overloaded at round ", t, ": load ",
                     loads.input[p][t], " > allowed ", allowed);
      }
    }
  }
  for (PortId q = 0; q < sw.num_outputs(); ++q) {
    const Capacity allowed = allowance.Allowed(sw.output_capacity(q));
    for (Round t = 0; t < loads.horizon; ++t) {
      if (loads.output[q][t] > allowed) {
        return error("output port ", q, " overloaded at round ", t, ": load ",
                     loads.output[q][t], " > allowed ", allowed);
      }
    }
  }
  return std::nullopt;
}

}  // namespace flowsched
