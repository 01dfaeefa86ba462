// Adapters exposing the coflow-aware policies as registered solvers:
// "coflow.<policy>" replays the instance through the round-based simulator
// with MakeCoflowPolicy(<policy>) and reports coflow completion time (CCT)
// statistics in the diagnostics alongside the usual per-flow metrics.
// Instances without coflow tags still run — every flow degenerates to a
// singleton group, so CCT equals per-flow response time.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/builtin_solvers.h"
#include "api/registry.h"
#include "api/scenario_support.h"
#include "coflow/coflow_metrics.h"
#include "coflow/coflow_policies.h"
#include "core/online/simulator.h"
#include "model/coflow.h"

namespace flowsched {
namespace internal {
namespace {

class CoflowPolicySolver : public Solver {
 public:
  explicit CoflowPolicySolver(std::string policy)
      : policy_(std::move(policy)), name_("coflow." + policy_) {}

  std::string_view name() const override { return name_; }
  std::string_view description() const override {
    return "round-by-round simulation of the coflow-aware policy "
           "(CCT diagnostics; untagged flows count as singletons)";
  }
  std::vector<SolverKeyDoc> ParamDocs() const override {
    return {{"record_backlog",
             "0/1 (default 0): keep per-round backlog sizes"},
            ScenarioParamDoc(),
            {"validate",
             "0/1 (default 1): audit every policy selection for duplicates "
             "and port overloads (benchmarks turn this off)"},
            {"warmstart",
             "0/1 (default 1, maxweight only): reuse the previous round's "
             "Hungarian work via the incremental matcher; pays only when "
             "consecutive rounds share matrix rows (an identical problem or "
             "an unchanged row prefix); bit-exact, so the schedule is "
             "identical either way"},
            {"approx",
             "eps > 0 (default 0 = exact, maxweight only): eps-approximate "
             "auction matcher; each round's matched weight is within "
             "backlog*eps of optimal, schedules (and CCT) may differ"}};
  }
  std::vector<SolverKeyDoc> DiagnosticDocs() const override {
    std::vector<SolverKeyDoc> docs = {
        {"rounds_simulated", "rounds until the backlog drained"},
        {"avg_port_utilization",
         "scheduled demand / available bandwidth over the run"},
        {"peak_backlog", "largest backlog at any policy round"},
        {"num_coflows",
         "groups in the instance (untagged flows count as singletons)"},
        {"num_tagged_coflows", "groups that carry a real coflow tag"},
        {"total_cct", "sum of per-group completion times"},
        {"avg_cct", "mean group completion time"},
        {"p50_cct", "median group completion time"},
        {"p95_cct", "95th-percentile group completion time"},
        {"p99_cct", "99th-percentile group completion time"},
        {"max_cct", "slowest group's completion time"},
        {"avg_slowdown",
         "mean CCT / isolation bound (1.0 = as fast as an empty switch)"},
        {"max_slowdown", "worst group slowdown vs isolation"},
        {"matcher_cache_hits",
         "rounds whose matching problem was identical to the previous "
         "round's (maxweight with warmstart=1)"},
        {"matcher_prefix_resumes",
         "rounds resumed from a per-row Hungarian checkpoint"},
        {"matcher_full_solves", "rounds solved from scratch"},
        {"matcher_reused_rows",
         "Hungarian row insertions skipped via cache hits and resumes"},
        {"matcher_total_rows", "total Hungarian rows across all rounds"},
        {"auction_bids", "price raises across all rounds (approx>0)"},
        {"auction_cold_restarts",
         "warm starts whose certificate failed and were re-run cold"}};
    AppendScenarioDiagnosticDocs(&docs);
    return docs;
  }

 protected:
  SolveReport SolveImpl(const Instance& instance,
                        const SolveOptions& options) override {
    SolveReport report;
    report.objective_name = "total_response";
    if (policy_ == "maxweight" && instance.MaxDemand() > 1) {
      report.error =
          "coflow.maxweight is matching-based and requires unit demands";
      return report;
    }
    SimulationOptions sim;
    if (options.max_rounds > 0) {
      if (options.max_rounds < instance.SafeHorizon()) {
        report.error = "max_rounds " + std::to_string(options.max_rounds) +
                       " is below the safe horizon " +
                       std::to_string(instance.SafeHorizon());
        return report;
      }
      sim.max_rounds = options.max_rounds;
    }
    std::string perr;
    sim.record_backlog = options.IntParamOr("record_backlog", 0, &perr) != 0;
    sim.validate = options.IntParamOr("validate", 1, &perr) != 0;
    MatchingOptions matching;
    matching.warmstart = options.IntParamOr("warmstart", 1, &perr) != 0;
    matching.approx_eps = options.DoubleParamOr("approx", 0.0, &perr);
    if (!perr.empty()) {
      report.error = perr;
      return report;
    }
    if (matching.approx_eps < 0.0) {
      report.error = "approx must be >= 0";
      return report;
    }
    ScenarioScript script;
    bool has_scenario = false;
    if (!LoadScenarioOption(options, &script, &has_scenario, &report.error)) {
      return report;
    }
    if (has_scenario) sim.scenario = &script;
    auto policy = MakeCoflowPolicy(policy_, options.seed, matching);
    const SimulationResult r = Simulate(instance, *policy, sim);
    if (r.truncated) {
      report.error = r.error;
      return report;
    }
    report.schedule = MapRealizedSchedule(instance, r.schedule);

    report.ok = true;
    // MIGRATE runs are audited against the original instance's ports;
    // grant the destinations' capacity as additive slack (see
    // scenario/scenario.h).
    report.allowance =
        has_scenario && script.has_migrations()
            ? CapacityAllowance::Additive(
                  MigrationCapacityAllowance(script, instance.sw()))
            : CapacityAllowance::Exact();
    report.diagnostics["rounds_simulated"] = r.rounds;
    report.diagnostics["avg_port_utilization"] = r.avg_port_utilization;
    report.diagnostics["peak_backlog"] = r.peak_backlog;
    const PolicyMatchingStats ms = policy->matching_stats();
    if (ms.matcher_solves > 0) {
      report.diagnostics["matcher_cache_hits"] = ms.matcher_cache_hits;
      report.diagnostics["matcher_prefix_resumes"] = ms.matcher_prefix_resumes;
      report.diagnostics["matcher_full_solves"] = ms.matcher_full_solves;
      report.diagnostics["matcher_reused_rows"] = ms.matcher_reused_rows;
      report.diagnostics["matcher_total_rows"] = ms.matcher_total_rows;
    }
    if (ms.auction_bids > 0) {
      report.diagnostics["auction_bids"] = ms.auction_bids;
      report.diagnostics["auction_cold_restarts"] = ms.auction_cold_restarts;
    }

    const CoflowSet coflows(instance);
    const CoflowMetrics cm =
        ComputeCoflowMetrics(instance, coflows, report.schedule);
    report.diagnostics["num_coflows"] = coflows.num_groups();
    report.diagnostics["num_tagged_coflows"] = coflows.num_tagged();
    report.diagnostics["total_cct"] = cm.total_cct;
    report.diagnostics["avg_cct"] = cm.avg_cct;
    report.diagnostics["p50_cct"] = cm.p50_cct;
    report.diagnostics["p95_cct"] = cm.p95_cct;
    report.diagnostics["p99_cct"] = cm.p99_cct;
    report.diagnostics["max_cct"] = cm.max_cct;
    report.diagnostics["avg_slowdown"] = cm.avg_slowdown;
    report.diagnostics["max_slowdown"] = cm.max_slowdown;
    if (has_scenario) {
      // Fault-free baseline (same policy, same seed) for the robustness
      // diagnostics.
      SimulationOptions base_sim = sim;
      base_sim.scenario = nullptr;
      base_sim.record_backlog = false;
      auto base_policy = MakeCoflowPolicy(policy_, options.seed, matching);
      const SimulationResult base = Simulate(instance, *base_policy, base_sim);
      AddScenarioDiagnostics(script, r.rounds, r.downtime_rounds,
                             r.peak_backlog, r.metrics.total_response,
                             base.peak_backlog, base.metrics.total_response,
                             r.migrated_flows, &report);
    }
    return report;
  }

 private:
  std::string policy_;
  std::string name_;
};

}  // namespace

void RegisterCoflowSolvers(SolverRegistry& registry) {
  for (const std::string& policy : AllCoflowPolicyNames()) {
    auto factory = [policy] {
      return std::make_unique<CoflowPolicySolver>(policy);
    };
    auto probe = factory();
    registry.Register(std::string(probe->name()),
                      std::string(probe->description()), std::move(factory));
  }
}

}  // namespace internal
}  // namespace flowsched
