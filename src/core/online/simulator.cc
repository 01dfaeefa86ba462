#include "core/online/simulator.h"

#include <algorithm>
#include <string>
#include <vector>

#include "core/online/round_engine.h"
#include "util/check.h"

namespace flowsched {
namespace {

// The batch driver's RoundEngine hooks: every admitted flow joins the
// realized instance, every pick records its round.
struct BatchHooks {
  RoundEngine& engine;
  std::vector<Round>& assigned_round;  // Indexed by realized flow id.
  SimulationResult& result;
  bool record_backlog;

  static bool Stop() { return false; }
  bool Admit(const Flow& arrival) {
    engine.Admit(arrival, [&](const Flow& f) {
      const FlowId id = result.realized.AddFlow(f.src, f.dst, f.demand,
                                                f.release, f.coflow);
      assigned_round.push_back(kUnassigned);
      return id;
    });
    return true;
  }
  void Pick(const Flow& f) { assigned_round[f.id] = engine.round(); }
  void EndRound() {
    if (record_backlog) {
      result.backlog_trace.push_back(static_cast<int>(engine.backlog_size()));
    }
  }
};

// Simulate() with the number of flows the source will emit when it is
// known (a replayed instance's), so the per-flow arrays are sized once
// instead of growing, and being copied, in the middle of a round. Without
// `score` the metrics stay empty: Replay's caller scores the mapped
// schedule instead.
SimulationResult Run(const SwitchSpec& sw, ArrivalSource& arrivals,
                     SchedulingPolicy& policy, const SimulationOptions& options,
                     int expected_flows, bool score) {
  RoundEngine engine(sw, policy, options.validate);
  SimulationResult result;
  result.realized = Instance(sw, {});
  result.realized.Reserve(expected_flows);
  std::vector<Round> assigned_round;
  assigned_round.reserve(expected_flows);
  // Without a scenario the overlay stays unbound: a fault-free switch.
  const bool has_scenario =
      options.scenario_ops != nullptr || options.scenario != nullptr;
  if (has_scenario && !engine.BindScenario(options.scenario,
                                           options.scenario_ops,
                                           &result.error)) {
    result.truncated = true;
    return result;
  }
  BatchHooks hooks{engine, assigned_round, result, options.record_backlog};
  const RoundEngine::End end =
      engine.Drive(arrivals, options.max_rounds, hooks);
  result.rounds = engine.round();
  result.peak_backlog = engine.peak_backlog();
  result.downtime_rounds = static_cast<Round>(engine.downtime_rounds());
  if (end == RoundEngine::End::kStranded ||
      end == RoundEngine::End::kSourceError) {
    result.truncated = true;
    result.error = engine.error();
  }
  if (has_scenario) {
    result.migrated_flows = engine.scenario().migrated_flows();
    // A daemon-facing scenario run must degrade gracefully: hitting the
    // round cap truncates instead of aborting.
    if (engine.backlog_size() != 0 && !result.truncated) {
      result.truncated = true;
      result.error = "scenario run hit max_rounds=" +
                     std::to_string(options.max_rounds) + " with " +
                     std::to_string(engine.backlog_size()) +
                     " flows still pending";
    }
  } else {
    FS_CHECK_MSG(engine.backlog_size() == 0,
                 "simulation hit max_rounds with " << engine.backlog_size()
                                                   << " flows still pending");
  }
  if (result.truncated) {
    // Partial run: the realized instance (and downtime count) stand, but
    // there is no complete schedule to validate or score.
    return result;
  }
  result.schedule = Schedule(result.realized.num_flows());
  for (FlowId e = 0; e < result.realized.num_flows(); ++e) {
    FS_CHECK_NE(assigned_round[e], kUnassigned);
    result.schedule.Assign(e, assigned_round[e]);
  }
  if (options.validate) {
    FS_CHECK(!result.schedule.ValidationError(result.realized).has_value());
  }
  if (score) result.metrics = ComputeMetrics(result.realized, result.schedule);
  result.avg_port_utilization = engine.AvgPortUtilization();
  return result;
}

}  // namespace

SimulationResult Simulate(const SwitchSpec& sw, ArrivalSource& arrivals,
                          SchedulingPolicy& policy,
                          const SimulationOptions& options) {
  return Run(sw, arrivals, policy, options, 0, /*score=*/true);
}

SimulationResult Simulate(const Instance& instance, SchedulingPolicy& policy,
                          const SimulationOptions& options) {
  FS_CHECK(!instance.ValidationError().has_value());
  InstanceStreamSource arrivals(instance);
  return Run(instance.sw(), arrivals, policy, options, instance.num_flows(),
             /*score=*/true);
}

ReplayRun Replay(const Instance& instance, const ReplayOptions& options) {
  const std::unique_ptr<SchedulingPolicy> policy =
      options.make_policy(options.seed);
  FS_CHECK(!instance.ValidationError().has_value());
  InstanceStreamSource arrivals(instance);
  const SimulationResult r = Run(instance.sw(), arrivals, *policy, options.sim,
                                 instance.num_flows(), /*score=*/false);
  ReplayRun run;
  run.rounds = r.rounds;
  run.peak_backlog = r.peak_backlog;
  if (!r.backlog_trace.empty()) {
    run.max_backlog =
        *std::max_element(r.backlog_trace.begin(), r.backlog_trace.end());
  }
  run.avg_port_utilization = r.avg_port_utilization;
  run.downtime_rounds = r.downtime_rounds;
  run.migrated_flows = r.migrated_flows;
  run.matching = policy->matching_stats();
  run.truncated = r.truncated;
  run.error = r.error;
  if (r.truncated) return run;
  // The realized instance numbers flows in arrival order, the source's.
  const std::vector<FlowId>& order = arrivals.order();
  run.schedule = Schedule(instance.num_flows());
  for (int k = 0; k < instance.num_flows(); ++k) {
    run.schedule.Assign(order[k], r.schedule.round_of(k));
  }
  return run;
}

}  // namespace flowsched
