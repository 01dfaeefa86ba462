// Adapters exposing the coflow-aware policies as registered solvers:
// "coflow.<policy>" replays the instance through the round-based simulator
// with MakeCoflowPolicy(<policy>) and reports coflow completion time (CCT)
// statistics in the diagnostics alongside the usual per-flow metrics.
// Instances without coflow tags still run — every flow degenerates to a
// singleton group, so CCT equals per-flow response time.
// The CCT diagnostics and the `approx` reader defined here are shared with
// the fabric adapters (api/builtin_solvers.h).
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
    std::vector<SolverKeyDoc> docs = ReplayParamDocs();
    if (policy_ == "maxweight") docs.push_back(ApproxParamDoc());
    return docs;
  }
  std::vector<SolverKeyDoc> DiagnosticDocs() const override {
    std::vector<SolverKeyDoc> docs = ReplayDiagnosticDocs();
    AppendCoflowDiagnosticDocs(&docs);
    docs.push_back(
        {"matcher_full_solves",
         "rounds solved by the exact Hungarian matcher (maxweight)"});
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
    MatchingOptions matching;
    if (!LoadApproxOption(options, &matching, &report.error)) return report;
    report = ReplayPolicy(instance, options, [&] {
      return MakeCoflowPolicy(policy_, options.seed, matching);
    });
    if (report.ok) AddCoflowDiagnostics(instance, &report);
    return report;
  }

 private:
  std::string policy_;
  std::string name_;
};

}  // namespace

bool LoadApproxOption(const SolveOptions& options, MatchingOptions* matching,
                      std::string* error) {
  std::string perr;
  matching->approx_eps = options.DoubleParamOr("approx", 0.0, &perr);
  if (perr.empty() && matching->approx_eps < 0.0) perr = "approx must be >= 0";
  if (perr.empty()) return true;
  *error = perr;
  return false;
}

SolverKeyDoc ApproxParamDoc() {
  return {"approx",
          "eps > 0 (default 0 = exact Hungarian): eps-approximate auction "
          "matcher; each round's matched weight is within backlog*eps of "
          "optimal, schedules (and CCT) may differ"};
}

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

void AppendCoflowDiagnosticDocs(std::vector<SolverKeyDoc>* docs) {
  docs->insert(docs->end(),
               {{"num_coflows",
                 "groups in the instance (untagged flows count as singletons)"},
                {"num_tagged_coflows", "groups that carry a real coflow tag"}});
  for (const CctDiagnostic& d : kCctDiagnostics) {
    docs->push_back({d.key, d.doc});
  }
}

void RegisterCoflowSolvers(SolverRegistry& registry) {
  for (const std::string& policy : AllCoflowPolicyNames()) {
    registry.Register(
        [policy] { return std::make_unique<CoflowPolicySolver>(policy); });
  }
}

}  // namespace internal
}  // namespace flowsched
