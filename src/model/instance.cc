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

namespace {

// Flows are checked with plain comparisons; the message stream is built
// only for the one flow that fails.
template <class... Parts>
std::optional<std::string> Message(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

}  // namespace

std::optional<std::string> FlowFitError(const SwitchSpec& sw, const Flow& e) {
  if (e.src < 0 || e.src >= sw.num_inputs()) {
    return Message("input port ", e.src, " out of range");
  }
  if (e.dst < 0 || e.dst >= sw.num_outputs()) {
    return Message("output port ", e.dst, " out of range");
  }
  if (e.demand < 1) return Message("demand ", e.demand, " < 1");
  if (e.demand > sw.Kappa(e)) {
    return Message("demand ", e.demand, " exceeds kappa ", sw.Kappa(e));
  }
  return std::nullopt;
}

std::optional<std::string> Instance::ValidationError() const {
  for (const Flow& e : flows_) {
    std::optional<std::string> why = FlowFitError(switch_, e);
    if (!why && e.release < 0) why = Message("negative release ", e.release);
    if (!why && e.coflow < kNoCoflow) {
      why = Message("invalid coflow tag ", e.coflow);
    }
    if (why) return Message("flow ", e.id, ": ", *why);
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

}  // namespace flowsched
