#include "model/instance.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace flowsched {

Instance::Instance(SwitchSpec sw, std::vector<Flow> flows)
    : switch_(std::move(sw)), flows_(std::move(flows)) {
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    flows_[i].id = static_cast<FlowId>(i);
  }
}

FlowId Instance::AddFlow(PortId src, PortId dst, Capacity demand,
                         Round release, CoflowId coflow) {
  const auto id = static_cast<FlowId>(flows_.size());
  flows_.push_back(Flow{id, src, dst, demand, release, coflow});
  return id;
}

std::optional<std::string> Instance::ValidationError() const {
  // Every flow is checked with plain comparisons; the message stream is
  // built only for the one flow that fails.
  const auto error = [](const auto&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    return std::optional<std::string>(os.str());
  };
  for (const Flow& e : flows_) {
    if (e.src < 0 || e.src >= switch_.num_inputs()) {
      return error("flow ", e.id, ": input port ", e.src, " out of range");
    }
    if (e.dst < 0 || e.dst >= switch_.num_outputs()) {
      return error("flow ", e.id, ": output port ", e.dst, " out of range");
    }
    if (e.demand < 1) {
      return error("flow ", e.id, ": demand ", e.demand, " < 1");
    }
    if (e.demand > switch_.Kappa(e)) {
      // The model (paper §2) requires d_e <= kappa_e = min(c_p, c_q).
      return error("flow ", e.id, ": demand ", e.demand, " exceeds kappa ",
                   switch_.Kappa(e));
    }
    if (e.release < 0) {
      return error("flow ", e.id, ": negative release ", e.release);
    }
    if (e.coflow < kNoCoflow) {
      return error("flow ", e.id, ": invalid coflow tag ", e.coflow);
    }
  }
  return std::nullopt;
}

bool Instance::HasCoflows() const {
  for (const Flow& e : flows_) {
    if (e.coflow != kNoCoflow) return true;
  }
  return false;
}

Capacity Instance::MaxDemand() const {
  Capacity d = 0;
  for (const Flow& e : flows_) d = std::max(d, e.demand);
  return d;
}

Round Instance::MaxRelease() const {
  Round r = 0;
  for (const Flow& e : flows_) r = std::max(r, e.release);
  return r;
}

Capacity Instance::TotalDemand() const {
  Capacity total = 0;
  for (const Flow& e : flows_) total += e.demand;
  return total;
}

Round Instance::SafeHorizon() const {
  return MaxRelease() + static_cast<Round>(flows_.size()) + 1;
}

std::vector<std::vector<FlowId>> Instance::FlowsByInputPort() const {
  std::vector<std::vector<FlowId>> by_port(switch_.num_inputs());
  for (const Flow& e : flows_) by_port[e.src].push_back(e.id);
  return by_port;
}

std::vector<std::vector<FlowId>> Instance::FlowsByOutputPort() const {
  std::vector<std::vector<FlowId>> by_port(switch_.num_outputs());
  for (const Flow& e : flows_) by_port[e.dst].push_back(e.id);
  return by_port;
}

}  // namespace flowsched
