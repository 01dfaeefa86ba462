// Online scheduling policies (paper §5.2.1).
//
// Each round the simulator hands the policy the backlog (released,
// unscheduled flows); the policy writes a capacity-feasible subset to run
// into the simulator's reusable selection buffer (SelectFlowsInto; the
// allocating SelectFlows wrapper remains for one-shot callers). Under unit
// capacities that subset is a matching of the backlog graph G_t; general
// capacities are handled by port replication (graph/expansion.h).
#ifndef FLOWSCHED_CORE_ONLINE_POLICY_H_
#define FLOWSCHED_CORE_ONLINE_POLICY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "model/instance.h"

namespace flowsched {

// A backlog entry: the backlogged flow itself, so the simulators can hand a
// fault-free round's backlog to the policy without copying it. `id` refers
// to the realized instance being simulated. The coflow tag rides along so
// group-aware policies (src/coflow/) can rank the backlog by coflow without
// any side-channel mapping; flow-level policies ignore it.
using PendingFlow = Flow;

// Matching-kernel counters surfaced as solver diagnostics; all zero for
// policies that never run a matcher.
struct PolicyMatchingStats {
  // Exact solves: the vertex-weight matcher (online maxweight) or the
  // Hungarian (coflow maxweight).
  std::int64_t matcher_solves = 0;
  std::int64_t matcher_full_solves = 0;  // == matcher_solves.
  // Always 0 (no matcher reuses a round's work); perfbench still reads them.
  std::int64_t matcher_cache_hits = 0;
  std::int64_t matcher_prefix_resumes = 0;
  std::int64_t matcher_reused_rows = 0;
  std::int64_t matcher_total_rows = 0;
};

class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  virtual std::string_view name() const = 0;

  // Overwrites *picked with indices into `pending` of the flows to schedule
  // in round t. Must be capacity-feasible for `sw` (the simulator validates
  // when SimulationOptions::validate is set). The out-parameter lets the
  // simulator hot loop hand the same buffer back every round; policies keep
  // their own scratch across calls and may allocate only while the backlog
  // grows past its previous peak.
  virtual void SelectFlowsInto(const SwitchSpec& sw, Round t,
                               std::span<const PendingFlow> pending,
                               std::vector<int>* picked) = 0;

  // One-shot convenience wrapper around SelectFlowsInto.
  std::vector<int> SelectFlows(const SwitchSpec& sw, Round t,
                               std::span<const PendingFlow> pending);

  // Clears internal state (e.g. RNG) between simulations.
  virtual void Reset() {}

  // True for matching-based policies (port replication expands ports
  // into unit-capacity replicas, so every flow must have demand 1). The
  // batch drivers FS_CHECK this deep in the round loop; long-running
  // callers (src/serve/) ask up front and reject non-unit flows with an
  // error instead of aborting.
  virtual bool RequiresUnitDemands() const { return false; }

  // Retirement hook for unbounded streams (src/serve/): after each round,
  // the StreamingSimulator's round-loop driver reports untagged flows that
  // completed and coflow groups that fully drained, so policies holding
  // per-flow or per-group state (src/coflow/) can recycle those slots and
  // keep resident memory proportional to the live backlog. The batch
  // driver, Simulate(), never calls this.
  // Default no-op: the flow-level policies here key nothing on flow ids.
  virtual void RetireFlows(std::span<const FlowId> /*completed_untagged*/,
                           std::span<const CoflowId> /*drained_groups*/) {}

  // Matching-kernel counters accumulated since construction (or the last
  // Reset), for diagnostics. Default: all zeros.
  virtual PolicyMatchingStats matching_stats() const { return {}; }
};

// Factory for the policies evaluated in the paper plus extra baselines and
// extensions: "maxcard", "minrtime", "maxweight", "fifo", "random", "srpt",
// "hybrid".
std::unique_ptr<SchedulingPolicy> MakePolicy(std::string_view name,
                                             std::uint64_t seed = 1);

// All policy names available through MakePolicy.
std::vector<std::string> AllPolicyNames();

}  // namespace flowsched

#endif  // FLOWSCHED_CORE_ONLINE_POLICY_H_
