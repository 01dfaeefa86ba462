/// FabricRunner: simulates every pod of a FabricAssignment and merges the
/// per-shard results into one fabric-level replay.
///
/// Determinism: shard s runs a freshly created policy seeded with
/// Rng::DeriveSeed(options.seed, s) on its own simulation, and the merge
/// walks shards in index order, so the merged schedule and counters are a
/// pure function of the instance, the assignment and the options.
///
/// The merged schedule assigns every *global* flow the round its pod chose.
/// Pods share the round clock but not port capacity: an output port
/// replicated into f pods can carry f x its base capacity in one round, so
/// the merged schedule is feasible under CapacityAllowance::Factor(K) (see
/// fabric/fabric_partition.h for why that is the honest model). Coflow CCT
/// over the merged schedule is automatically the cross-shard CCT — a split
/// group's completion is the max over its member pods' last rounds.
#ifndef FLOWSCHED_FABRIC_FABRIC_RUNNER_H_
#define FLOWSCHED_FABRIC_FABRIC_RUNNER_H_

#include <string>
#include <vector>

#include "core/online/simulator.h"
#include "fabric/fabric_partition.h"
#include "scenario/scenario.h"

namespace flowsched {

/// Projects the global-coordinate `script` onto shard `shard` of `fa` as
/// shard-local per-side capacity ops (consumed via
/// SimulationOptions::scenario_ops). PORT_* / SET_CAPACITY events on host h
/// hit every local port mapped to h — the owned input/output in h's own pod
/// and replica egress ports elsewhere. POD_* events expand to every host
/// the partitioner assigned to that pod; a `PODS k` header must match
/// fa.shards (a script written for a different topology is an error), and a
/// headerless script simply has no pod events to check. Returns false with
/// a line-tagged *error on out-of-range hosts/pods or a PODS mismatch.
bool ProjectScenarioOps(const ScenarioScript& script,
                        const FabricAssignment& fa, int shard,
                        std::vector<ScenarioOp>* ops, std::string* error);

/// Simulates every shard of `fa` (built from `instance`) and merges.
/// `instance` must be the instance `fa` was partitioned from.
///
/// options.sim.scenario, when set, is expressed in *global* host / pod
/// coordinates: RunFabric projects each event onto every shard's local
/// ports (ProjectScenarioOps above), so a host outage downs its owned
/// input/output ports in its own pod *and* every replica egress port other
/// pods materialized for it. Callers pre-check options.sim.max_rounds
/// against the *global* SafeHorizon, which bounds every shard's.
///
/// The merged run: `rounds` is the fabric makespan (max over pods),
/// `peak_backlog` and `downtime_rounds` are maxima over pods (they share
/// the round clock), `matching` is summed over pods, and
/// `avg_port_utilization` is the mean over pods that carried flows. When
/// any pod's run ends without draining, the result is truncated with the
/// first such pod's error and an empty schedule.
ReplayRun RunFabric(const Instance& instance, const FabricAssignment& fa,
                    const ReplayOptions& options);

}  // namespace flowsched

#endif  // FLOWSCHED_FABRIC_FABRIC_RUNNER_H_
