/// FabricRunner: simulates every pod of a FabricAssignment and merges the
/// per-shard results into one fabric-level schedule.
///
/// Determinism contract (same bar as the campaign runner): shard s runs
/// a freshly created policy seeded with Rng::DeriveSeed(options.seed, s) on
/// its own SimulationContext, results land in a per-shard slot, and the
/// merge walks shards in index order — so the merged schedule, metrics and
/// diagnostics are byte-identical whether the shards ran serially or on the
/// util ThreadPool with any `jobs` value.
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

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/online/policy.h"
#include "fabric/fabric_partition.h"
#include "model/schedule.h"
#include "scenario/scenario.h"

namespace flowsched {

/// Builds one pod's policy from its seed. RunFabric may call it from
/// several threads at once.
using SeededPolicyFactory =
    std::function<std::unique_ptr<SchedulingPolicy>(std::uint64_t seed)>;

/// Per-run knobs for RunFabric.
struct FabricRunOptions {
  /// The pods' policy, e.g. a MakePolicy or MakeCoflowPolicy call. Required.
  SeededPolicyFactory make_policy;
  /// Base seed; shard s simulates with Rng::DeriveSeed(seed, s).
  std::uint64_t seed = 1;
  /// Worker threads for shard simulation (clamped to [1, shards]). Results
  /// are byte-identical for any value; > 1 borrows the util ThreadPool.
  int jobs = 1;
  /// Per-shard simulation horizon; 0 = simulator default. Callers should
  /// pre-check it against the *global* SafeHorizon (every shard's horizon
  /// is bounded by it).
  Round max_rounds = 0;
  /// Per-round selection audits (SimulationOptions::validate).
  bool validate = true;
  /// Optional fault-injection script (scenario/scenario.h), expressed in
  /// *global* host / pod coordinates. RunFabric projects each event onto
  /// every shard's local ports (ProjectScenarioOps below) — a host outage
  /// downs its owned input/output ports in its own pod *and* every replica
  /// egress port other pods materialized for it, so no pod keeps sending
  /// toward a dead host. Not owned; must outlive the run.
  const ScenarioScript* scenario = nullptr;
};

/// What one pod's simulation contributed (diagnostic granularity; the
/// fabric totals below are what reports consume).
struct FabricShardReport {
  int shard = 0;
  int num_flows = 0;
  Capacity demand = 0;
  Round rounds = 0;
  int peak_backlog = 0;
  Round downtime_rounds = 0;
};

/// The merged fabric run.
struct FabricResult {
  /// Global flow id -> round, merged across pods. Validates against the
  /// original instance under CapacityAllowance::Factor(shards).
  Schedule schedule;
  /// Fabric makespan driver: max rounds any pod simulated.
  Round rounds = 0;
  /// Max backlog any pod's policy ever saw.
  int peak_backlog = 0;
  /// Auction price raises summed over pods (coflow maxweight, approx_eps > 0).
  std::int64_t auction_bids = 0;
  /// Mean per-pod port utilization over pods that carried flows.
  double avg_port_utilization = 0.0;
  /// Max over pods of rounds that pod spent with >= 1 port down (pods share
  /// the round clock, so this is the fabric's wall-clock downtime).
  Round downtime_rounds = 0;
  /// True when any pod's run ended without draining (scenario strands flows
  /// on dead ports, or a scenario run hit max_rounds). `schedule` is then
  /// partial and must not be consumed; `error` says which pod and why.
  bool truncated = false;
  std::string error;
  /// Per-pod breakdown, indexed by shard.
  std::vector<FabricShardReport> shard_reports;
};

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
FabricResult RunFabric(const Instance& instance, const FabricAssignment& fa,
                       const FabricRunOptions& options);

}  // namespace flowsched

#endif  // FLOWSCHED_FABRIC_FABRIC_RUNNER_H_
