// StreamingSimulator: the online round loop for unbounded streams — the
// same RoundEngine (core/online/round_engine.h) batch Simulate() drives,
// under a driver that retires flows instead of recording a schedule.
//
// Differences from batch Simulate():
//   * arrivals are pulled from an ArrivalSource (or injected by the wire
//     protocol) instead of replayed from a materialized Instance;
//   * completed flows retire immediately — their response is folded into
//     StreamingMetrics and their per-flow state (backlog slot, coflow
//     group slot via SchedulingPolicy::RetireFlows) is released, so
//     resident memory is O(live flows), not O(all flows);
//   * hitting the round cap truncates the run (summary.truncated) instead
//     of aborting — a daemon must not FS_CHECK-die on a long stream.
//
// Admission order, id assignment, idle-gap fast-forward and the
// termination round come from the shared engine, so on a finite input the
// realized schedule and the exact aggregates (flows, rounds, total/max
// response, p50/p95/p99 response, peak backlog, utilization, total CCT)
// are bit-identical to batch Simulate() (locked by tests/serve/).
//
// Coflow streaming caveat: a group is retired the moment its last live
// member completes. If a trace releases more members of the same tag
// *after* the group fully drained, the streaming run treats them as a new
// group while batch CoflowSet sees one — keep a coflow's members' releases
// ahead of its drain (true for the clustered generator, which releases
// whole coflows in one round).
#ifndef FLOWSCHED_SERVE_STREAMING_SIMULATOR_H_
#define FLOWSCHED_SERVE_STREAMING_SIMULATOR_H_

#include <csignal>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/online/round_engine.h"
#include "core/online/simulator.h"
#include "scenario/scenario.h"
#include "serve/streaming_metrics.h"
#include "util/flat_id_set.h"
#include "workload/arrival_source.h"

namespace flowsched {

struct StreamingOptions {
  Round max_rounds = -1;  // < 0: run until the source exhausts and drains.
  bool validate = true;   // Audit every selection (see SimulationOptions).
  // Emit a JSONL stats line to *stats_out every stats_every rounds (the
  // tumbling-window cadence); 0 disables periodic emission.
  Round stats_every = 0;
  std::ostream* stats_out = nullptr;
  // When set, every round with selections emits "MATCH <t> <id>..." here.
  std::ostream* match_out = nullptr;
  // Fault-injection overlay, mirroring SimulationOptions::scenario: the
  // same script replays the identical realized schedule on both paths.
  const ScenarioScript* scenario = nullptr;
  // Cooperative shutdown: when set and *stop turns non-zero, Run() finishes
  // the round in flight, truncates, and returns — so a signal still ends
  // with a complete DONE summary (flowsched_serve installs the handler).
  const volatile std::sig_atomic_t* stop = nullptr;
};

struct StreamingSummary {
  long long flows = 0;      // Completed flows.
  long long arrived = 0;    // Admitted flows (== flows unless truncated).
  Round rounds = 0;         // Mirrors batch SimulationResult::rounds.
  double total_response = 0.0;  // Exact (integer-valued summands).
  double mean_response = 0.0;
  double max_response = 0.0;
  double stddev_response = 0.0;  // Welford estimate of the sample stddev.
  // Exact nearest-rank percentiles, as batch ComputeMetrics gives them. A
  // percentile among responses of 2^16 rounds or more reads max_response
  // (StreamingDistribution::kCountCap).
  double p50_response = 0.0;
  double p95_response = 0.0;
  double p99_response = 0.0;
  int peak_backlog = 0;
  double avg_port_utilization = 0.0;
  long long coflows = 0;  // Drained groups, singletons included.
  double total_cct = 0.0;
  double mean_cct = 0.0;
  double max_cct = 0.0;
  // Simulated rounds with >= 1 port side down (scenario / FAULT sessions).
  long long downtime_rounds = 0;
  // Arrivals re-homed by MIGRATE rules (scenario sessions only).
  long long migrated_flows = 0;
  bool truncated = false;     // Hit max_rounds with flows still pending.
  bool source_error = false;  // The source failed mid-stream (see error).
  std::string error;

  // The summary as one JSON object line (no trailing newline); schema in
  // docs/serve-protocol.md.
  std::string ToJson() const;
};

class StreamingSimulator {
 public:
  StreamingSimulator(const SwitchSpec& sw, SchedulingPolicy& policy,
                     const StreamingOptions& options = {});

  // Pull mode: drives `source` until it exhausts and the backlog drains
  // (or max_rounds truncates). One-shot per simulator instance.
  StreamingSummary Run(ArrivalSource& source);

  // Wire mode: inject arrivals for the current round, then Step() once per
  // TICK. Injected flows keep their caller-chosen id (must be unique among
  // live flows) and are released at the current round.
  Round round() const { return engine_.round(); }
  bool Inject(const Flow& flow, std::string* error);
  void Step();
  std::size_t backlog_size() const { return engine_.backlog_size(); }

  // Wire FAULT/RECOVER: immediately downs/restores host `h` on both port
  // sides. False with *error on an out-of-range host; never aborts. Flows
  // already backlogged on a downed host stay queued until it recovers.
  bool ForceFault(PortId h, std::string* error);
  bool ForceRecover(PortId h, std::string* error);

  // Current stats line (wire STATS command); resets the tumbling window.
  // Valid until the next call.
  const std::string& StatsLine();
  // Summary of everything processed so far (wire STOP / EOF).
  StreamingSummary Summarize() const;

 private:
  struct Hooks;  // The RoundEngine hooks (streaming_simulator.cc).

  // False with *error when `flow` does not fit the switch (FlowFitError)
  // or the policy RequiresUnitDemands() and its demand is not 1.
  bool Admissible(const Flow& flow, std::string* error) const;
  void Track(const Flow& f);  // Coflow group tracking of an arrival.
  void EmitPeriodicStats();

  struct GroupState {
    long long live = 0;
    Round arrival = 0;
  };

  const SwitchSpec& sw_;
  SchedulingPolicy& policy_;
  StreamingOptions options_;
  StreamingMetrics metrics_;
  RoundEngine engine_;
  FlowId next_id_ = 0;  // Pull-mode ids, dense in arrival order.
  long long completed_ = 0;
  long long coflows_completed_ = 0;
  bool source_error_ = false;
  std::string match_line_;  // This round's MATCH line, written at its end.
  std::string error_;
  std::unordered_map<CoflowId, GroupState> groups_;  // Live tagged groups.
  FlatIdSet live_ids_;                               // Wire mode only.
  bool wire_mode_ = false;
  std::vector<FlowId> completed_untagged_;  // Per-round retirement scratch.
  std::vector<CoflowId> drained_groups_;
};

}  // namespace flowsched

#endif  // FLOWSCHED_SERVE_STREAMING_SIMULATOR_H_
