// RoundEngine: the one round loop of the online model (paper §5.2.1),
// driven by batch Simulate() (core/online/simulator.h) and by the
// StreamingSimulator (serve/streaming_simulator.h).
//
// A round admits arrivals (release = t, MIGRATE remap), advances the fault
// overlay, lets the policy pick a capacity-feasible subset of the backlog
// — on degraded rounds only of the flows off dead ports, against the
// effective capacities — audits the pick when `validate` is set, reports
// each picked flow to the driver and compacts the backlog in place.
// Drive() pulls arrivals from an ArrivalSource, fast-forwards idle gaps
// and stops a run stranded on dead ports. Every buffer lives in the
// borrowed SimulationContext, so steady-state rounds allocate nothing.
//
// Drivers plug in through a hooks object, a template parameter so the
// per-pick call inlines:
//   bool Stop();                // Before each round; true ends the run.
//   bool Admit(const Flow& f);  // Per arrival (calls RoundEngine::Admit);
//                               // false ends the run.
//   void Pick(const Flow& f);   // Per picked flow, before compaction.
//   void EndRound();            // After each round the policy ran in.
#ifndef FLOWSCHED_CORE_ONLINE_ROUND_ENGINE_H_
#define FLOWSCHED_CORE_ONLINE_ROUND_ENGINE_H_

#include <algorithm>
#include <string>
#include <vector>

#include "core/online/policy.h"
#include "core/online/simulation_context.h"
#include "scenario/scenario.h"
#include "workload/arrival_source.h"

namespace flowsched {

class RoundEngine {
 public:
  // Why Drive() returned. kRoundCap may leave flows backlogged.
  enum class End { kDrained, kRoundCap, kStranded, kSourceError, kStopped };

  // Clears `ctx`. The fault overlay starts unbound: a fault-free switch.
  RoundEngine(const SwitchSpec& sw, SchedulingPolicy& policy,
              SimulationContext& ctx, bool validate);

  // Binds the fault overlay to `ops` (pre-projected, e.g. fabric pods),
  // else to `script`, else to an empty script. False with *error
  // ("scenario: ...") when the script does not fit the switch.
  bool BindScenario(const ScenarioScript* script,
                    const std::vector<ScenarioOp>* ops, std::string* error);
  ScenarioRuntime& scenario() { return scen_; }
  const ScenarioRuntime& scenario() const { return scen_; }

  Round round() const { return t_; }
  void NextRound() { ++t_; }
  int peak_backlog() const { return peak_backlog_; }
  // Policy rounds during which >= 1 port side was down.
  long long downtime_rounds() const { return downtime_rounds_; }
  long long admitted() const { return admitted_; }
  // Admitted demand over the port bandwidth of round() rounds, averaged
  // over the two sides (1.0 = every port saturated every round).
  double AvgPortUtilization() const;
  // Why the run stranded, or the source's error.
  const std::string& error() const { return error_; }

  // Admits an arrival at the current round. `record(f)` sees it with its
  // release and MIGRATE-remapped ports, records it and returns its id.
  template <class Record>
  void Admit(Flow f, Record&& record) {
    f.release = t_;
    // MIGRATE re-homes the arrival before anything records it; the coins
    // depend only on admission order (scenario/scenario.h).
    scen_.RemapArrival(t_, &f.src, &f.dst);
    f.id = record(f);
    ++admitted_;
    admitted_demand_ += f.demand;
    ctx_.backlog.push_back(f);
  }

  // Runs the current round on a nonempty backlog. False when every
  // backlogged flow is on a dead port and the round idles.
  template <class Hooks>
  bool RunRound(Hooks& hooks) {
    if (!Select()) return false;
    ctx_.remove.assign(ctx_.backlog.size(), 0);
    for (int i : ctx_.picked) {
      const int b = mapped_ ? ctx_.pending_map[i] : i;
      ctx_.remove[b] = 1;
      hooks.Pick(ctx_.backlog[b]);
    }
    // Stable in-place compaction of the surviving backlog.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < ctx_.backlog.size(); ++i) {
      if (!ctx_.remove[i]) {
        if (kept != i) ctx_.backlog[kept] = ctx_.backlog[i];
        ++kept;
      }
    }
    ctx_.backlog.resize(kept);
    return true;
  }

  // Runs rounds until one ends the run; round() is then the round count
  // (the round that ended the run is not counted).
  template <class Hooks>
  End Drive(ArrivalSource& source, Round max_rounds, Hooks& hooks) {
    for (; t_ < max_rounds; ++t_) {
      if (hooks.Stop()) return End::kStopped;
      ctx_.arrivals.clear();
      source.ArrivalsInto(t_, ctx_.backlog, &ctx_.arrivals);
      if (!source.ok()) {
        error_ = source.error();
        return End::kSourceError;
      }
      for (const Flow& f : ctx_.arrivals) {
        if (!hooks.Admit(f)) return End::kStopped;
      }
      if (ctx_.backlog.empty()) {
        if (source.Exhausted(t_ + 1)) return End::kDrained;
        // Skip the idle gap, but never past the cap, so round() lands
        // where a walk-every-round loop would. AdvanceTo catches up.
        const Round next =
            std::min(source.NextArrivalRound(t_ + 1), max_rounds);
        if (next > t_ + 1) t_ = next - 1;  // ++t_ lands on `next`.
        continue;
      }
      if (!RunRound(hooks) && source.Exhausted(t_ + 1) &&
          !scen_.HasOpAfter(t_)) {
        error_ = "scenario leaves " + std::to_string(ctx_.backlog.size()) +
                 " flows on dead ports with no recovery event after round " +
                 std::to_string(t_);
        return End::kStranded;
      }
      hooks.EndRound();
    }
    return End::kRoundCap;
  }

 private:
  // Advances the overlay, counts the round and fills ctx_.picked. False
  // when no backlogged flow is eligible.
  bool Select();

  const SwitchSpec& sw_;
  SchedulingPolicy& policy_;
  SimulationContext& ctx_;
  bool validate_;
  ScenarioRuntime scen_;
  Round t_ = 0;
  bool mapped_ = false;  // This round's policy view is ctx_.pending.
  int peak_backlog_ = 0;
  long long downtime_rounds_ = 0;
  long long admitted_ = 0;
  long long admitted_demand_ = 0;
  std::string error_;
};

}  // namespace flowsched

#endif  // FLOWSCHED_CORE_ONLINE_ROUND_ENGINE_H_
