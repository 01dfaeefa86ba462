// Adapters exposing every online policy (core/online/) as a registered
// solver: "online.<policy>" replays the instance through the round-based
// simulator with MakePolicy(<policy>). The facade covers fixed instances;
// adaptive adversaries (workload/adversarial.h) drive the simulator
// directly, since they generate flows in reaction to the policy.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/builtin_solvers.h"
#include "api/registry.h"
#include "api/scenario_support.h"
#include "core/online/simulator.h"

namespace flowsched {
namespace internal {
namespace {

class OnlinePolicySolver : public Solver {
 public:
  explicit OnlinePolicySolver(std::string policy)
      : policy_(std::move(policy)), name_("online." + policy_) {}

  std::string_view name() const override { return name_; }
  std::string_view description() const override {
    return "round-by-round simulation of the online policy (paper §5.2.1)";
  }
  std::vector<SolverKeyDoc> ParamDocs() const override {
    return ReplayParamDocs();
  }
  std::vector<SolverKeyDoc> DiagnosticDocs() const override {
    std::vector<SolverKeyDoc> docs = ReplayDiagnosticDocs();
    docs.push_back(
        {"matcher_full_solves",
         "rounds solved by the exact vertex-weight matcher (maxweight)"});
    AppendScenarioDiagnosticDocs(&docs);
    return docs;
  }

 protected:
  SolveReport SolveImpl(const Instance& instance,
                        const SolveOptions& options) override {
    return ReplayPolicy(instance, options,
                        [&] { return MakePolicy(policy_, options.seed); });
  }

 private:
  std::string policy_;
  std::string name_;
};

}  // namespace

Schedule MapRealizedSchedule(const Instance& instance,
                             const Schedule& realized) {
  std::vector<FlowId> order(instance.num_flows());
  for (FlowId e = 0; e < instance.num_flows(); ++e) order[e] = e;
  std::stable_sort(order.begin(), order.end(), [&](FlowId a, FlowId b) {
    return instance.flow(a).release < instance.flow(b).release;
  });
  Schedule schedule(instance.num_flows());
  for (int k = 0; k < instance.num_flows(); ++k) {
    schedule.Assign(order[k], realized.round_of(k));
  }
  return schedule;
}

bool CheckMaxRounds(const Instance& instance, const SolveOptions& options,
                    std::string* error) {
  if (options.max_rounds <= 0 || options.max_rounds >= instance.SafeHorizon()) {
    return true;
  }
  *error = "max_rounds " + std::to_string(options.max_rounds) +
           " is below the safe horizon " +
           std::to_string(instance.SafeHorizon());
  return false;
}

std::vector<SolverKeyDoc> ReplayParamDocs() {
  return {{"record_backlog",
           "0/1 (default 0): keep per-round backlog sizes; the maximum "
           "surfaces as diagnostics max_backlog"},
          ScenarioParamDoc(),
          {"validate",
           "0/1 (default 1): audit every policy selection for duplicates "
           "and port overloads (benchmarks turn this off)"}};
}

std::vector<SolverKeyDoc> ReplayDiagnosticDocs() {
  return {{"rounds_simulated", "rounds until the backlog drained"},
          {"avg_port_utilization",
           "scheduled demand / available bandwidth over the run (1.0 = "
           "every port saturated every round)"},
          {"peak_backlog", "largest backlog at any policy round"},
          {"max_backlog",
           "largest recorded backlog (only with record_backlog=1)"}};
}

SolveReport ReplayPolicy(const Instance& instance,
                         const SolveOptions& options,
                         const PolicyFactory& make_policy) {
  SolveReport report;
  report.objective_name = "total_response";
  auto replayed = make_policy();
  // Matching-based policies FS_CHECK-abort on non-unit demands deep in
  // the round loop; reject such instances with a recoverable error.
  if (replayed->RequiresUnitDemands() && instance.MaxDemand() > 1) {
    report.error = "policy " + std::string(replayed->name()) +
                   " is matching-based and requires unit demands";
    return report;
  }
  if (!CheckMaxRounds(instance, options, &report.error)) return report;
  SimulationOptions sim;
  if (options.max_rounds > 0) sim.max_rounds = options.max_rounds;
  std::string perr;
  sim.record_backlog = options.IntParamOr("record_backlog", 0, &perr) != 0;
  sim.validate = options.IntParamOr("validate", 1, &perr) != 0;
  if (!perr.empty()) {
    report.error = perr;
    return report;
  }
  ScenarioScript script;
  bool has_scenario = false;
  if (!LoadScenarioOption(options, &script, &has_scenario, &report.error)) {
    return report;
  }
  if (has_scenario) sim.scenario = &script;
  const SimulationResult r = Simulate(instance, *replayed, sim);
  if (r.truncated) {
    report.error = r.error;
    return report;
  }
  report.schedule = MapRealizedSchedule(instance, r.schedule);
  report.ok = true;
  // MIGRATE re-homes arrivals onto other hosts, but the facade audits
  // the schedule against the *original* instance's ports — grant the
  // destinations' capacity as additive slack (scenario/scenario.h).
  report.allowance =
      has_scenario && script.has_migrations()
          ? CapacityAllowance::Additive(
                MigrationCapacityAllowance(script, instance.sw()))
          : CapacityAllowance::Exact();
  report.diagnostics["rounds_simulated"] = r.rounds;
  report.diagnostics["avg_port_utilization"] = r.avg_port_utilization;
  report.diagnostics["peak_backlog"] = r.peak_backlog;
  const PolicyMatchingStats ms = replayed->matching_stats();
  if (ms.matcher_full_solves > 0) {
    report.diagnostics["matcher_full_solves"] = ms.matcher_full_solves;
  }
  if (ms.auction_bids > 0) {
    report.diagnostics["auction_bids"] = ms.auction_bids;
    report.diagnostics["auction_cold_restarts"] = ms.auction_cold_restarts;
  }
  if (sim.record_backlog && !r.backlog_trace.empty()) {
    report.diagnostics["max_backlog"] =
        *std::max_element(r.backlog_trace.begin(), r.backlog_trace.end());
  }
  if (has_scenario) {
    // The fault-free baseline (same policy, same seed) anchors the
    // robustness diagnostics.
    SimulationOptions base_sim = sim;
    base_sim.scenario = nullptr;
    base_sim.record_backlog = false;
    auto base_policy = make_policy();
    const SimulationResult base = Simulate(instance, *base_policy, base_sim);
    AddScenarioDiagnostics(script, r.rounds, r.downtime_rounds,
                           r.peak_backlog, r.metrics.total_response,
                           base.peak_backlog, base.metrics.total_response,
                           r.migrated_flows, &report);
  }
  return report;
}

void RegisterOnlineSolvers(SolverRegistry& registry) {
  for (const std::string& policy : AllPolicyNames()) {
    registry.Register(
        [policy] { return std::make_unique<OnlinePolicySolver>(policy); });
  }
}

}  // namespace internal
}  // namespace flowsched
