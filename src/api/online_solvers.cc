// The replay solvers' shared body (ReplayPolicy) and the single-switch
// adapters: "online.<policy>" replays the instance through the round-based
// simulator with MakePolicy(<policy>), "coflow.<policy>" with
// MakeCoflowPolicy(<policy>) and reports coflow completion time (CCT)
// statistics alongside the usual per-flow metrics. Instances without
// coflow tags still run — every flow degenerates to a singleton group, so
// CCT equals per-flow response time. The facade covers fixed instances;
// adaptive adversaries (workload/adversarial.h) drive the simulator
// directly, since they generate flows in reaction to the policy.
#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/builtin_solvers.h"
#include "api/registry.h"
#include "coflow/coflow_metrics.h"
#include "coflow/coflow_policies.h"
#include "model/coflow.h"
#include "scenario/scenario.h"

namespace flowsched {
namespace internal {
namespace {

// The CCT diagnostics read off CoflowMetrics, with their doc rows.
struct CctDiagnostic {
  const char* key;
  const char* doc;
  double CoflowMetrics::*value;
};
constexpr CctDiagnostic kCctDiagnostics[] = {
    {"total_cct", "sum of per-group completion times",
     &CoflowMetrics::total_cct},
    {"avg_cct", "mean group completion time", &CoflowMetrics::avg_cct},
    {"p50_cct", "median group completion time", &CoflowMetrics::p50_cct},
    {"p95_cct", "95th-percentile group completion time",
     &CoflowMetrics::p95_cct},
    {"p99_cct", "99th-percentile group completion time",
     &CoflowMetrics::p99_cct},
    {"max_cct", "slowest group's completion time", &CoflowMetrics::max_cct},
    {"avg_slowdown",
     "mean CCT / isolation bound (1.0 = as fast as an empty switch)",
     &CoflowMetrics::avg_slowdown},
    {"max_slowdown", "worst group slowdown vs isolation",
     &CoflowMetrics::max_slowdown}};

void AddCoflowDiagnostics(const Instance& instance, SolveReport* report) {
  const CoflowSet coflows(instance);
  const CoflowMetrics cm =
      ComputeCoflowMetrics(instance, coflows, report->schedule);
  report->diagnostics["num_coflows"] = coflows.num_groups();
  report->diagnostics["num_tagged_coflows"] = coflows.num_tagged();
  for (const CctDiagnostic& d : kCctDiagnostics) {
    report->diagnostics[d.key] = cm.*d.value;
  }
}

// online.<policy> (flow-level) and coflow.<policy> (coflow-aware): the same
// replay on one switch, differing only in the policy factory and the CCT
// and matcher doc rows.
class SwitchReplaySolver : public Solver {
 public:
  explicit SwitchReplaySolver(ReplayedPolicy policy)
      : policy_(std::move(policy)),
        name_((policy_.coflow_aware ? "coflow." : "online.") + policy_.name) {}

  std::string_view name() const override { return name_; }
  std::string_view description() const override {
    return policy_.coflow_aware
               ? "round-by-round simulation of the coflow-aware policy "
                 "(CCT diagnostics; untagged flows count as singletons)"
               : "round-by-round simulation of the online policy (paper "
                 "§5.2.1)";
  }
  std::vector<SolverKeyDoc> ParamDocs() const override {
    return {{"record_backlog",
             "0/1 (default 0): keep per-round backlog sizes; the maximum "
             "surfaces as diagnostics max_backlog"},
            ScenarioParamDoc(),
            {"validate",
             "0/1 (default 1): audit every policy selection for duplicates "
             "and port overloads (benchmarks turn this off)"}};
  }
  std::vector<SolverKeyDoc> DiagnosticDocs() const override {
    std::vector<SolverKeyDoc> docs = {
        {"rounds_simulated", "rounds until the backlog drained"},
        {"avg_port_utilization",
         "scheduled demand / available bandwidth over the run (1.0 = "
         "every port saturated every round)"},
        {"peak_backlog", "largest backlog at any policy round"},
        {"max_backlog",
         "largest recorded backlog (only with record_backlog=1)"}};
    if (policy_.coflow_aware) AppendCoflowDiagnosticDocs(&docs);
    // Only the two maxweight policies run a matcher every round.
    if (policy_.name == "maxweight") {
      docs.push_back({"matcher_full_solves",
                      policy_.coflow_aware
                          ? "rounds solved by the exact Hungarian matcher"
                          : "rounds solved by the exact vertex-weight "
                            "matcher"});
    }
    AppendScenarioDiagnosticDocs(&docs);
    return docs;
  }

 protected:
  SolveReport SolveImpl(const Instance& instance,
                        const SolveOptions& options) override {
    return ReplayPolicy(*this, policy_, instance, options, Replay);
  }

 private:
  ReplayedPolicy policy_;
  std::string name_;
};

}  // namespace

std::unique_ptr<SchedulingPolicy> ReplayedPolicy::Make(
    std::uint64_t seed) const {
  return coflow_aware ? MakeCoflowPolicy(name, seed) : MakePolicy(name, seed);
}

SolveReport ReplayPolicy(const Solver& solver, const ReplayedPolicy& policy,
                         const Instance& instance,
                         const SolveOptions& options, const ReplayStep& step) {
  SolveReport report;
  report.objective_name = "total_response";
  std::string perr;
  ReplayOptions run;
  run.make_policy = [&](std::uint64_t seed) { return policy.Make(seed); };
  run.seed = options.seed;
  // Matching-based policies FS_CHECK-abort on non-unit demands deep in
  // the round loop; reject such instances with a recoverable error.
  if (instance.MaxDemand() > 1) {
    const auto built = run.make_policy(run.seed);
    if (built->RequiresUnitDemands()) {
      report.error = "policy " + std::string(built->name()) +
                     " is matching-based and requires unit demands";
      return report;
    }
  }
  // The simulator FS_CHECK-aborts when flows are still pending at its
  // horizon, so horizons below the safe one are refused. A fabric pod's
  // safe horizon is bounded by the whole instance's (fewer flows, same
  // releases).
  if (options.max_rounds > 0) {
    if (options.max_rounds < instance.SafeHorizon()) {
      report.error = "max_rounds " + std::to_string(options.max_rounds) +
                     " is below the safe horizon " +
                     std::to_string(instance.SafeHorizon());
      return report;
    }
    run.sim.max_rounds = options.max_rounds;
  }
  run.sim.record_backlog = options.IntParamOr("record_backlog", 0, &perr) != 0;
  run.sim.validate = options.IntParamOr("validate", 1, &perr) != 0;
  if (!perr.empty()) {
    report.error = perr;
    return report;
  }
  ScenarioScript script;
  const std::string scenario = options.ParamOr("scenario", "");
  if (!scenario.empty()) {
    if (!LoadScenarioParam(scenario, &script, &perr)) {
      report.error = "scenario: " + perr;
      return report;
    }
    run.sim.scenario = &script;
  }

  ReplayRun r = step(instance, run);
  if (r.truncated) {
    report.error = r.error;
    return report;
  }
  report.ok = true;
  report.schedule = std::move(r.schedule);
  // MIGRATE re-homes arrivals onto other hosts, but the facade audits
  // the schedule against the *original* instance's ports — grant the
  // destinations' capacity as additive slack (scenario/scenario.h).
  report.allowance = r.allowance;
  if (script.has_migrations()) {
    report.allowance.additive =
        MigrationCapacityAllowance(script, instance.sw());
  }
  std::map<std::string, double>& d = report.diagnostics;
  d = std::move(r.diagnostics);
  d["rounds_simulated"] = r.rounds;
  d["avg_port_utilization"] = r.avg_port_utilization;
  d["peak_backlog"] = r.peak_backlog;
  if (run.sim.record_backlog) d["max_backlog"] = r.max_backlog;
  const std::vector<SolverKeyDoc> docs = solver.DiagnosticDocs();
  const auto documents = [&](std::string_view key) {
    return std::any_of(docs.begin(), docs.end(),
                       [&](const SolverKeyDoc& doc) { return doc.key == key; });
  };
  const PolicyMatchingStats& ms = r.matching;
  if (ms.matcher_full_solves > 0 && documents("matcher_full_solves")) {
    d["matcher_full_solves"] = ms.matcher_full_solves;
  }
  if (documents("num_coflows")) AddCoflowDiagnostics(instance, &report);
  if (run.sim.scenario == nullptr) return report;

  // The fault-free twin (same policy, same seed) anchors the robustness
  // diagnostics. It replays the original instance, so the deltas include
  // MIGRATE's effect.
  ReplayOptions twin = run;
  twin.sim.scenario = nullptr;
  twin.sim.record_backlog = false;
  const ReplayRun base = step(instance, twin);
  const double response =
      ComputeMetrics(instance, report.schedule).total_response;
  const double base_response =
      ComputeMetrics(instance, base.schedule).total_response;
  d["scenario_events"] = static_cast<double>(script.events().size());
  d["downtime_rounds"] = static_cast<double>(r.downtime_rounds);
  d["backlog_surge"] = static_cast<double>(r.peak_backlog - base.peak_backlog);
  const Round last = script.last_event_round();
  d["recovery_drain_rounds"] =
      static_cast<double>(r.rounds > last ? r.rounds - last : 0);
  d["response_inflation"] =
      base_response > 0.0 ? response / base_response : 1.0;
  d["migrated_flows"] = static_cast<double>(r.migrated_flows);
  return report;
}

SolverKeyDoc ScenarioParamDoc() {
  return {"scenario",
          "fault-injection script: a file path or inline:<script> with ';' "
          "as the line separator (grammar in docs/scenarios.md); the run "
          "replays under timed port/pod outages and adds robustness "
          "diagnostics vs the fault-free run"};
}

void AppendCoflowDiagnosticDocs(std::vector<SolverKeyDoc>* docs) {
  docs->insert(docs->end(),
               {{"num_coflows",
                 "groups in the instance (untagged flows count as singletons)"},
                {"num_tagged_coflows", "groups that carry a real coflow tag"}});
  for (const CctDiagnostic& d : kCctDiagnostics) {
    docs->push_back({d.key, d.doc});
  }
}

void AppendScenarioDiagnosticDocs(std::vector<SolverKeyDoc>* docs) {
  docs->insert(
      docs->end(),
      {{"scenario_events", "timed events in the bound scenario script"},
       {"downtime_rounds", "simulated rounds with >= 1 port side down"},
       {"backlog_surge", "scenario peak backlog minus the fault-free run's"},
       {"recovery_drain_rounds",
        "rounds simulated after the last scenario event (post-recovery "
        "drain time)"},
       {"response_inflation",
        "scenario total response / fault-free total response"},
       {"migrated_flows",
        "arrivals re-homed by MIGRATE rules (0 for scripts without "
        "MIGRATE; nothing is ever dropped)"}});
}

void RegisterOnlineSolvers(SolverRegistry& registry) {
  for (const bool coflow_aware : {false, true}) {
    for (const std::string& policy :
         coflow_aware ? AllCoflowPolicyNames() : AllPolicyNames()) {
      registry.Register([policy, coflow_aware] {
        return std::make_unique<SwitchReplaySolver>(
            ReplayedPolicy{policy, coflow_aware});
      });
    }
  }
}

}  // namespace internal
}  // namespace flowsched
