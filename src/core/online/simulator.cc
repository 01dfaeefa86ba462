#include "core/online/simulator.h"

#include <string>

#include "core/online/round_engine.h"
#include "util/check.h"

namespace flowsched {
namespace {

// The batch driver's RoundEngine hooks: every admitted flow joins the
// realized instance, every pick records its round.
struct BatchHooks {
  RoundEngine& engine;
  SimulationContext& ctx;
  SimulationResult& result;
  bool record_backlog;

  static bool Stop() { return false; }
  bool Admit(const Flow& arrival) {
    engine.Admit(arrival, [&](const Flow& f) {
      const FlowId id = result.realized.AddFlow(f.src, f.dst, f.demand,
                                                f.release, f.coflow);
      ctx.assigned_round.push_back(kUnassigned);
      return id;
    });
    return true;
  }
  void Pick(const Flow& f) { ctx.assigned_round[f.id] = engine.round(); }
  void EndRound() {
    if (record_backlog) {
      result.backlog_trace.push_back(static_cast<int>(ctx.backlog.size()));
    }
  }
};

}  // namespace

SimulationResult Simulate(const SwitchSpec& sw, ArrivalSource& arrivals,
                          SchedulingPolicy& policy,
                          const SimulationOptions& options,
                          SimulationContext* context) {
  SimulationContext local_context;
  SimulationContext& ctx = context != nullptr ? *context : local_context;
  RoundEngine engine(sw, policy, ctx, options.validate);
  SimulationResult result;
  result.realized = Instance(sw, {});
  // Without a scenario the overlay stays unbound: a fault-free switch.
  const bool has_scenario =
      options.scenario_ops != nullptr || options.scenario != nullptr;
  if (has_scenario && !engine.BindScenario(options.scenario,
                                           options.scenario_ops,
                                           &result.error)) {
    result.truncated = true;
    return result;
  }
  BatchHooks hooks{engine, ctx, result, options.record_backlog};
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
    if (!ctx.backlog.empty() && !result.truncated) {
      result.truncated = true;
      result.error = "scenario run hit max_rounds=" +
                     std::to_string(options.max_rounds) + " with " +
                     std::to_string(ctx.backlog.size()) +
                     " flows still pending";
    }
  } else {
    FS_CHECK_MSG(ctx.backlog.empty(),
                 "simulation hit max_rounds with " << ctx.backlog.size()
                                                   << " flows still pending");
  }
  if (result.truncated) {
    // Partial run: the realized instance (and downtime count) stand, but
    // there is no complete schedule to validate or score.
    return result;
  }
  result.schedule = Schedule(result.realized.num_flows());
  for (FlowId e = 0; e < result.realized.num_flows(); ++e) {
    FS_CHECK_NE(ctx.assigned_round[e], kUnassigned);
    result.schedule.Assign(e, ctx.assigned_round[e]);
  }
  if (options.validate) {
    FS_CHECK(!result.schedule.ValidationError(result.realized).has_value());
  }
  result.metrics = ComputeMetrics(result.realized, result.schedule);
  result.avg_port_utilization = engine.AvgPortUtilization();
  return result;
}

SimulationResult Simulate(const Instance& instance, SchedulingPolicy& policy,
                          const SimulationOptions& options,
                          SimulationContext* context) {
  FS_CHECK(!instance.ValidationError().has_value());
  InstanceStreamSource arrivals(instance);
  return Simulate(instance.sw(), arrivals, policy, options, context);
}

}  // namespace flowsched
