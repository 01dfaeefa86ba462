// The round-based online flow simulator (paper §5.2.1).
//
// Maintains the backlog bipartite graph G_t: released-but-unscheduled flows.
// Each round, arrivals join the backlog, the policy extracts a
// capacity-feasible subset (validated when options.validate is set), and
// those flows complete within the round. Per-port queues are open — the
// policy may pick any backlog flow, not just the oldest.
//
// The round loop itself is the RoundEngine (core/online/round_engine.h),
// shared with the streaming simulator; Simulate() records each flow's
// round and scores the realized schedule. The engine owns the per-round
// buffers and the per-flow arrays are sized to the instance up front, so
// a replay's rounds allocate only while the backlog grows past its peak.
#ifndef FLOWSCHED_CORE_ONLINE_SIMULATOR_H_
#define FLOWSCHED_CORE_ONLINE_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/online/policy.h"
#include "model/metrics.h"
#include "model/schedule.h"
#include "scenario/scenario.h"
#include "workload/arrival_source.h"

namespace flowsched {

struct SimulationOptions {
  Round max_rounds = 1 << 20;   // Hard stop (policy livelock guard).
  bool record_backlog = false;  // Per-round backlog sizes.
  // Check every policy selection for duplicate indices and port overloads
  // (three O(backlog + ports) scans per round). On by default — a buggy
  // policy corrupts the realized schedule silently otherwise; benchmarks
  // turn it off to keep the measured loop free of audit overhead.
  bool validate = true;
  // Fault-injection overlay (scenario/scenario.h): timed events reshape
  // the effective capacities before each round's policy call. Flows on a
  // dead port stay backlogged; a run that can never drain truncates
  // gracefully (SimulationResult::truncated) instead of tripping FS_CHECK.
  const ScenarioScript* scenario = nullptr;
  // Pre-projected per-side ops (fabric pods); wins over `scenario`.
  const std::vector<ScenarioOp>* scenario_ops = nullptr;
};

struct SimulationResult {
  Instance realized;  // The flows that actually arrived, ids in arrival order.
  Schedule schedule;
  ScheduleMetrics metrics;
  Round rounds = 0;                // Rounds simulated until drain.
  std::vector<int> backlog_trace;  // If record_backlog.
  int peak_backlog = 0;  // Largest backlog at any policy round.
  // Scheduled demand / available port bandwidth over the simulated rounds,
  // averaged over the two sides (1.0 = every port saturated every round).
  double avg_port_utilization = 0.0;
  // Scenario runs only. A truncated run carries a partial realized
  // instance but no schedule/metrics; `error` says why (hit max_rounds, or
  // flows stranded on dead ports with no recovery event left).
  bool truncated = false;
  std::string error;
  // Simulated (non-idle) rounds during which >= 1 port side was down.
  Round downtime_rounds = 0;
  // Arrivals re-homed by MIGRATE rules (scenario runs only). The realized
  // instance carries the migrated ports; nothing is ever dropped.
  long long migrated_flows = 0;
};

// Replays a fixed instance (the "online" policy still only sees released
// flows each round).
SimulationResult Simulate(const Instance& instance, SchedulingPolicy& policy,
                          const SimulationOptions& options = {});

// Drives an arrival source (possibly adaptive) until it is exhausted and
// the backlog drains.
SimulationResult Simulate(const SwitchSpec& sw, ArrivalSource& arrivals,
                          SchedulingPolicy& policy,
                          const SimulationOptions& options = {});

// Builds a fresh policy from its seed: one per replay, one per pod of a
// sharded fabric (fabric/fabric_runner.h).
using SeededPolicyFactory =
    std::function<std::unique_ptr<SchedulingPolicy>(std::uint64_t seed)>;

// One replay of a fixed instance: the policy, its seed and the simulation
// knobs.
struct ReplayOptions {
  SeededPolicyFactory make_policy;  // Required.
  std::uint64_t seed = 1;
  SimulationOptions sim;
};

// A replay as the solver facade consumes it: the schedule in the replayed
// instance's own flow ids and the run's counters.
struct ReplayRun {
  Schedule schedule;  // Empty when truncated.
  Round rounds = 0;
  int peak_backlog = 0;
  int max_backlog = 0;  // Largest recorded backlog (record_backlog only).
  double avg_port_utilization = 0.0;
  Round downtime_rounds = 0;
  long long migrated_flows = 0;
  PolicyMatchingStats matching;
  bool truncated = false;
  std::string error;
  // The allowance `schedule` validates under before any MIGRATE slack, and
  // counters a caller adds on top (a sharded fabric's topology).
  CapacityAllowance allowance;
  std::map<std::string, double> diagnostics;
};

// Simulate()s `instance` under options.make_policy(options.seed) and maps
// the realized schedule (flows numbered in arrival order) back onto the
// instance's flow ids.
ReplayRun Replay(const Instance& instance, const ReplayOptions& options);

}  // namespace flowsched

#endif  // FLOWSCHED_CORE_ONLINE_SIMULATOR_H_
