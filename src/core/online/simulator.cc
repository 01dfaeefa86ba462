#include "core/online/simulator.h"

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "util/check.h"

namespace flowsched {
namespace {

// Adapter replaying a fixed instance as an arrival process.
class ReplayArrivals : public ArrivalProcess {
 public:
  explicit ReplayArrivals(const Instance& instance) : instance_(instance) {
    order_.reserve(instance.num_flows());
    for (const Flow& e : instance.flows()) order_.push_back(e.id);
    std::stable_sort(order_.begin(), order_.end(), [&](FlowId a, FlowId b) {
      return instance.flow(a).release < instance.flow(b).release;
    });
    releases_.reserve(order_.size());
    for (FlowId id : order_) releases_.push_back(instance.flow(id).release);
  }

  std::vector<Flow> Arrivals(Round t, std::span<const Flow>) override {
    std::vector<Flow> out;
    Append(t, &out);
    return out;
  }

  void ArrivalsInto(Round t, std::span<const Flow>,
                    std::vector<Flow>* out) override {
    Append(t, out);
  }

  bool Exhausted(Round /*t*/) const override { return next_ >= order_.size(); }

  Round NextArrivalRound(Round t) const override {
    // Append() has already consumed every release <= the last queried
    // round, so the first unconsumed release is the next arrival — no
    // search needed (a lower_bound here could only ever land on next_).
    return next_ < releases_.size() ? std::max(t, releases_[next_]) : t;
  }

 private:
  void Append(Round t, std::vector<Flow>* out) {
    const std::size_t end =
        std::upper_bound(releases_.begin() + next_, releases_.end(), t) -
        releases_.begin();
    for (; next_ < end; ++next_) out->push_back(instance_.flow(order_[next_]));
  }

  const Instance& instance_;
  std::vector<FlowId> order_;
  std::vector<Round> releases_;  // Aligned with order_ (non-decreasing).
  std::size_t next_ = 0;
};

}  // namespace

void ValidatePolicySelection(const SwitchSpec& sw,
                             std::span<const PendingFlow> pending,
                             std::span<const int> picked,
                             SimulationContext& ctx) {
  ctx.in_load.assign(sw.num_inputs(), 0);
  ctx.out_load.assign(sw.num_outputs(), 0);
  ctx.used.assign(pending.size(), 0);
  for (int i : picked) {
    FS_CHECK_MSG(i >= 0 && i < static_cast<int>(pending.size()),
                 "policy returned an out-of-range backlog index " << i);
    FS_CHECK_MSG(!ctx.used[i], "policy selected backlog index " << i << " twice");
    ctx.used[i] = 1;
    ctx.in_load[pending[i].src] += pending[i].demand;
    ctx.out_load[pending[i].dst] += pending[i].demand;
  }
  for (PortId p = 0; p < sw.num_inputs(); ++p) {
    FS_CHECK_MSG(ctx.in_load[p] <= sw.input_capacity(p),
                 "policy overloaded input port " << p);
  }
  for (PortId q = 0; q < sw.num_outputs(); ++q) {
    FS_CHECK_MSG(ctx.out_load[q] <= sw.output_capacity(q),
                 "policy overloaded output port " << q);
  }
}

SimulationResult Simulate(const SwitchSpec& sw, ArrivalProcess& arrivals,
                          SchedulingPolicy& policy,
                          const SimulationOptions& options,
                          SimulationContext* context) {
  SimulationContext local_context;
  SimulationContext& ctx = context != nullptr ? *context : local_context;
  ctx.Clear();
  SimulationResult result;
  result.realized = Instance(sw, {});
  // The fault overlay, bound once per run. Without a scenario this stays
  // untouched and the loop below is byte-for-byte the fault-free loop.
  ScenarioRuntime scen;
  const bool has_scenario =
      options.scenario_ops != nullptr || options.scenario != nullptr;
  if (has_scenario) {
    std::string scen_error;
    const bool bound =
        options.scenario_ops != nullptr
            ? scen.BindOps(*options.scenario_ops, sw, &scen_error)
            : scen.Bind(*options.scenario, sw, &scen_error);
    if (!bound) {
      result.truncated = true;
      result.error = "scenario: " + scen_error;
      return result;
    }
  }
  Round t = 0;
  for (; t < options.max_rounds; ++t) {
    // Arrivals for round t (the adversary sees the current backlog).
    ctx.arrivals.clear();
    arrivals.ArrivalsInto(t, ctx.backlog, &ctx.arrivals);
    for (Flow f : ctx.arrivals) {
      f.release = t;
      // MIGRATE rules re-home the arrival before it is recorded: the
      // realized instance carries the migrated ports (coins are a pure
      // function of admission order; see scenario/scenario.h).
      if (has_scenario) scen.RemapArrival(t, &f.src, &f.dst);
      f.id = result.realized.AddFlow(f.src, f.dst, f.demand, f.release,
                                     f.coflow);
      ctx.assigned_round.push_back(kUnassigned);
      ctx.backlog.push_back(f);
    }
    if (has_scenario) scen.AdvanceTo(t);
    if (ctx.backlog.empty()) {
      if (arrivals.Exhausted(t + 1)) break;
      // Fast-forward the idle gap: with nothing pending and nothing
      // released before `next`, the intermediate rounds are no-ops. Never
      // skip past the round cap — result.rounds must stay <= max_rounds
      // exactly as if the gap had been walked one round at a time.
      // (AdvanceTo is monotone, so skipped scenario events are caught up.)
      const Round next =
          std::min(arrivals.NextArrivalRound(t + 1), options.max_rounds);
      if (next > t + 1) t = next - 1;  // ++t lands on `next`.
      continue;
    }
    // The policy sees the backlog itself, unless the switch is degraded.
    std::span<const PendingFlow> pending = ctx.backlog;
    const bool mapped = has_scenario && scen.degraded();
    if (mapped) {
      // Flows touching a dead port stay backlogged and are withheld from
      // the policy; pending_map remembers each survivor's backlog slot.
      ctx.pending.clear();
      ctx.pending_map.clear();
      for (std::size_t i = 0; i < ctx.backlog.size(); ++i) {
        const Flow& f = ctx.backlog[i];
        if (scen.IsBlocked(f.src, f.dst)) continue;
        ctx.pending.push_back(f);
        ctx.pending_map.push_back(static_cast<int>(i));
      }
      pending = ctx.pending;
    }
    result.peak_backlog =
        std::max(result.peak_backlog, static_cast<int>(ctx.backlog.size()));
    if (has_scenario && scen.AnyPortDown()) ++result.downtime_rounds;
    if (pending.empty()) {
      // Every backlogged flow is blocked. The round idles — unless nothing
      // can ever unblock them, in which case the run is stranded.
      if (arrivals.Exhausted(t + 1) && !scen.HasOpAfter(t)) {
        result.truncated = true;
        result.error =
            "scenario leaves " + std::to_string(ctx.backlog.size()) +
            " flows on dead ports with no recovery event after round " +
            std::to_string(t);
        break;
      }
      if (options.record_backlog) {
        result.backlog_trace.push_back(static_cast<int>(ctx.backlog.size()));
      }
      continue;
    }
    // Selection and validation audit against the round's *effective*
    // capacities, not the base spec.
    const SwitchSpec& round_sw = mapped ? scen.view() : sw;
    policy.SelectFlowsInto(round_sw, t, pending, &ctx.picked);
    if (options.validate) {
      ValidatePolicySelection(round_sw, pending, ctx.picked, ctx);
    }
    ctx.remove.assign(ctx.backlog.size(), 0);
    for (int i : ctx.picked) {
      ctx.assigned_round[pending[i].id] = t;
      ctx.remove[mapped ? ctx.pending_map[i] : i] = 1;
    }
    // Stable in-place compaction of the surviving backlog.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < ctx.backlog.size(); ++i) {
      if (!ctx.remove[i]) {
        if (kept != i) ctx.backlog[kept] = ctx.backlog[i];
        ++kept;
      }
    }
    ctx.backlog.resize(kept);
    if (options.record_backlog) {
      result.backlog_trace.push_back(static_cast<int>(kept));
    }
  }
  if (has_scenario) {
    result.migrated_flows = scen.migrated_flows();
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
  result.rounds = t;
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
  if (result.rounds > 0) {
    Capacity in_bw = 0;
    Capacity out_bw = 0;
    for (Capacity c : sw.input_capacities()) in_bw += c;
    for (Capacity c : sw.output_capacities()) out_bw += c;
    const auto demand = static_cast<double>(result.realized.TotalDemand());
    const auto rounds = static_cast<double>(result.rounds);
    result.avg_port_utilization =
        0.5 * (demand / (static_cast<double>(in_bw) * rounds) +
               demand / (static_cast<double>(out_bw) * rounds));
  }
  return result;
}

SimulationResult Simulate(const Instance& instance, SchedulingPolicy& policy,
                          const SimulationOptions& options,
                          SimulationContext* context) {
  FS_CHECK(!instance.ValidationError().has_value());
  ReplayArrivals arrivals(instance);
  return Simulate(instance.sw(), arrivals, policy, options, context);
}

}  // namespace flowsched
