/// SimulationContext: the reusable buffer set behind the zero-allocation
/// round loop (core/online/round_engine.h).
///
/// One context owns the backlog (handed to policies as-is on fault-free
/// rounds), the filtered PendingFlow view of degraded rounds, the arrival
/// staging buffer, the per-flow assignment table, and the
/// per-port load scratch used by opt-in selection validation. Simulate()
/// creates one internally by default and the StreamingSimulator owns one;
/// drivers running many simulations back-to-back (benchmarks, fabric
/// pods) pass the same context to every Simulate() call so
/// steady-state rounds perform no heap allocation at all —
/// buffers only grow while the backlog exceeds every size seen before.
/// Contexts are single-simulation-at-a-time state: parallel runs take one
/// context each (campaign/campaign_runner.h, fabric/fabric_runner.h).
#ifndef FLOWSCHED_CORE_ONLINE_SIMULATION_CONTEXT_H_
#define FLOWSCHED_CORE_ONLINE_SIMULATION_CONTEXT_H_

#include <vector>

#include "core/online/policy.h"
#include "model/flow.h"

namespace flowsched {

/// Owns every per-round buffer of one simulation; reusable across runs.
class SimulationContext {
 public:
  /// Empties every buffer while keeping its capacity (the RoundEngine
  /// calls it on construction, so a context can be handed from run to run
  /// as-is).
  void Clear() {
    backlog.clear();
    arrivals.clear();
    pending.clear();
    pending_map.clear();
    picked.clear();
    assigned_round.clear();
    remove.clear();
    in_load.clear();
    out_load.clear();
    used.clear();
  }

  // Round-loop state (managed by the RoundEngine).
  std::vector<Flow> backlog;          ///< Released, unscheduled flows.
  std::vector<Flow> arrivals;         ///< Staging for ArrivalsInto.
  std::vector<PendingFlow> pending;   ///< Policy view on degraded rounds
                                      ///< only: the backlog minus flows on
                                      ///< dead ports. Fault-free rounds hand
                                      ///< the policy the backlog itself.
  std::vector<int> pending_map;       ///< pending index -> backlog index,
                                      ///< filled with `pending` (degraded
                                      ///< rounds only).
  std::vector<int> picked;            ///< Policy selection for the round.
  std::vector<Round> assigned_round;  ///< Indexed by realized flow id
                                      ///< (batch Simulate() only).
  std::vector<char> remove;           ///< Backlog compaction flags.

  // Scratch for the round loop's selection audit (`validate`).
  std::vector<Capacity> in_load;
  std::vector<Capacity> out_load;
  std::vector<char> used;
};

}  // namespace flowsched

#endif  // FLOWSCHED_CORE_ONLINE_SIMULATION_CONTEXT_H_
