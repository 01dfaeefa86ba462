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
    std::vector<SolverKeyDoc> docs = {
        {"record_backlog",
         "0/1 (default 0): keep per-round backlog sizes; the maximum "
         "surfaces as diagnostics max_backlog"},
        ScenarioParamDoc(),
        {"validate",
         "0/1 (default 1): audit every policy selection for duplicates "
         "and port overloads (benchmarks turn this off)"}};
    if (policy_ == "maxweight") {
      docs.push_back(
          {"approx",
           "eps > 0 (default 0 = exact Hungarian): eps-approximate auction "
           "matcher; each round's matched weight is within backlog*eps of "
           "optimal, schedules (and CCT) may differ"});
    }
    return docs;
  }
  std::vector<SolverKeyDoc> DiagnosticDocs() const override {
    std::vector<SolverKeyDoc> docs = {
        {"rounds_simulated", "rounds until the backlog drained"},
        {"avg_port_utilization",
         "scheduled demand / available bandwidth over the run"},
        {"peak_backlog", "largest backlog at any policy round"},
        {"max_backlog",
         "largest recorded backlog (only with record_backlog=1)"},
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
        {"matcher_full_solves",
         "rounds solved by the exact Hungarian matcher (maxweight)"}};
    if (policy_ == "maxweight") {
      docs.push_back({"auction_bids", "price raises across all rounds "
                                      "(approx>0)"});
      docs.push_back({"auction_cold_restarts",
                      "warm starts whose certificate failed and were re-run "
                      "cold"});
    }
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
    std::string perr;
    MatchingOptions matching;
    matching.approx_eps = options.DoubleParamOr("approx", 0.0, &perr);
    if (!perr.empty()) {
      report.error = perr;
      return report;
    }
    if (matching.approx_eps < 0.0) {
      report.error = "approx must be >= 0";
      return report;
    }
    report = ReplayPolicy(instance, options, [&] {
      return MakeCoflowPolicy(policy_, options.seed, matching);
    });
    if (!report.ok) return report;
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
