// Online scheduling policies (paper §5.2.1).
//
// Each round the simulator hands the policy the backlog (released,
// unscheduled flows); the policy writes a capacity-feasible subset to run
// into the simulator's reusable selection buffer (SelectFlowsInto — part of
// the PR 2 zero-allocation refit; the allocating SelectFlows wrapper
// remains for one-shot callers). Under unit capacities that subset is a
// matching of the backlog graph G_t; general capacities are handled by
// port replication.
#ifndef FLOWSCHED_CORE_ONLINE_POLICY_H_
#define FLOWSCHED_CORE_ONLINE_POLICY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/bipartite_graph.h"
#include "model/instance.h"

namespace flowsched {

// A backlog entry: the backlogged flow itself, so the simulators can hand a
// fault-free round's backlog to the policy without copying it. `id` refers
// to the realized instance being simulated. The coflow tag rides along so
// group-aware policies (src/coflow/) can rank the backlog by coflow without
// any side-channel mapping; flow-level policies ignore it.
using PendingFlow = Flow;

// Matching-kernel knobs for the maxweight policy family (graph/
// max_weight_matching.h, graph/auction_matching.h). Non-matching policies
// ignore them.
struct MatchingOptions {
  // > 0 switches to the eps-approximate auction matcher: matched weight is
  // within backlog·eps of optimal, schedules may differ from the exact
  // solver. Off (0) by default — approximations are opt-in (ROADMAP 4).
  double approx_eps = 0.0;
};

// Matching-kernel counters surfaced as solver diagnostics; all zero for
// policies that never run a matcher.
struct PolicyMatchingStats {
  std::int64_t matcher_solves = 0;       // Exact Hungarian solves.
  std::int64_t matcher_full_solves = 0;  // == matcher_solves.
  // Always 0 (no matcher reuses a round's work); perfbench still reads them.
  std::int64_t matcher_cache_hits = 0;
  std::int64_t matcher_prefix_resumes = 0;
  std::int64_t matcher_reused_rows = 0;
  std::int64_t matcher_total_rows = 0;
  std::int64_t auction_bids = 0;
  std::int64_t auction_cold_restarts = 0;
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

  // True for matching-based policies (BacklogGraphBuilder expands ports
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

// Buffer-reusing builder for the backlog multigraph over *port replicas*:
// edge i corresponds to pending[i]; matchings of this graph are exactly the
// capacity-feasible unit-demand subsets. Requires unit demands. The replica
// layout mirrors graph/expansion.cc but works from PendingFlow (the
// simulator does not materialize an Instance mid-flight).
//
// Each Build() patches the previous round's graph in place: the replica
// base offsets are recomputed only when the switch changes, and the edge /
// adjacency storage of the held BipartiteGraph is reused, so steady-state
// rounds touch no heap at all.
class BacklogGraphBuilder {
 public:
  const BipartiteGraph& Build(const SwitchSpec& sw,
                              std::span<const PendingFlow> pending);

  const BipartiteGraph& graph() const { return graph_; }

 private:
  BipartiteGraph graph_{0, 0};
  SwitchSpec cached_switch_;  // Base offsets below are valid for this spec.
  bool have_switch_ = false;
  std::vector<int> in_base_;
  std::vector<int> out_base_;
  std::vector<int> in_cursor_;
  std::vector<int> out_cursor_;
};

// One-shot convenience wrapper around BacklogGraphBuilder.
BipartiteGraph BuildBacklogGraph(const SwitchSpec& sw,
                                 std::span<const PendingFlow> pending);

// Factory for the policies evaluated in the paper plus extra baselines and
// extensions: "maxcard", "minrtime", "maxweight", "fifo", "random", "srpt",
// "hybrid". `matching` tunes the maxweight matching kernels and is ignored
// by every other policy.
std::unique_ptr<SchedulingPolicy> MakePolicy(
    std::string_view name, std::uint64_t seed = 1,
    const MatchingOptions& matching = {});

// All policy names available through MakePolicy.
std::vector<std::string> AllPolicyNames();

}  // namespace flowsched

#endif  // FLOWSCHED_CORE_ONLINE_POLICY_H_
