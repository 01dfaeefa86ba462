// Instance: a switch plus a set of flow requests (a full FS-ART / FS-MRT
// problem input).
#ifndef FLOWSCHED_MODEL_INSTANCE_H_
#define FLOWSCHED_MODEL_INSTANCE_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "model/flow.h"
#include "model/switch_spec.h"

namespace flowsched {

// Checks that flow `e` fits switch `sw`: both ports in range and
// 1 <= demand <= kappa_e = min(c_p, c_q) (paper §2). Returns the problem
// without a flow prefix ("input port 9 out of range"), or nullopt. Every
// reader of flows checks them here: Instance::ValidationError, the
// streamed trace reader (model/trace_io.h) and the streaming simulator.
std::optional<std::string> FlowFitError(const SwitchSpec& sw, const Flow& e);

class Instance {
 public:
  Instance() = default;
  // Flows are renumbered so flows()[i].id == i.
  Instance(SwitchSpec sw, std::vector<Flow> flows);

  const SwitchSpec& sw() const { return switch_; }
  const std::vector<Flow>& flows() const { return flows_; }
  const Flow& flow(FlowId id) const { return flows_[id]; }
  int num_flows() const { return static_cast<int>(flows_.size()); }

  // Adds a flow (id assigned automatically); returns its id.
  FlowId AddFlow(PortId src, PortId dst, Capacity demand = 1, Round release = 0,
                 CoflowId coflow = kNoCoflow);

  // Pre-sizes the flow list for callers that grow an instance flow by flow
  // (trace parsers, generators, the simulator's realized instance).
  void Reserve(int num_flows) { flows_.reserve(num_flows); }

  // Returns an error message if the instance is malformed (port out of
  // range, demand < 1 or > kappa_e, negative release), nullopt when valid.
  //
  // Flows with src == dst are legal: inputs and outputs are separate index
  // spaces of the bipartite switch (paper §2), so input port p and output
  // port p are distinct physical ports — such a flow is a host sending to
  // a same-numbered peer (shuffles routinely emit mapper i -> reducer i),
  // not a self-loop that could bypass the switch.
  std::optional<std::string> ValidationError() const;

  // Aggregate properties used throughout the algorithms.
  Capacity MaxDemand() const;       // d_max (0 for empty instances).
  Round MaxRelease() const;         // r_max (0 for empty instances).
  Capacity TotalDemand() const;
  // True when at least one flow carries a coflow tag (model/coflow.h builds
  // the grouped view; untagged flows become singleton groups there).
  bool HasCoflows() const;
  // A horizon H such that some optimal schedule (for either objective)
  // finishes before round H: any non-idle schedule completes at least one
  // pending flow per round, so r_max + n rounds always suffice.
  Round SafeHorizon() const;

  /// Provenance stamp: the spec text or file path this instance was loaded
  /// from (api/instance_source.h sets it; empty for programmatically built
  /// instances). Purely descriptive for most consumers — reports echo it —
  /// but `fabric.*` solvers recover their shard topology from a `fabric:`
  /// stamp, so sweeps can vary the shard count through the instance axis.
  const std::string& source() const { return source_; }
  void set_source(std::string source) { source_ = std::move(source); }

 private:
  SwitchSpec switch_;
  std::vector<Flow> flows_;
  std::string source_;
};

}  // namespace flowsched

#endif  // FLOWSCHED_MODEL_INSTANCE_H_
