// Adapters exposing sharded-fabric simulation as registered solvers:
// "fabric.<policy>" partitions the instance across K pods
// (fabric/fabric_partition.h), simulates each pod with <policy>, and merges
// (fabric/fabric_runner.h). Coflow-aware policy names (sebf, maxweight,
// fifo) take precedence over flow-level ones where the namespaces collide,
// so `fabric.fifo` is FIFO-of-coflows, mirroring how coflow traffic is the
// fabric's native workload; the remaining flow-level policies (srpt,
// maxcard, minrtime, random, hybrid) register alongside.
//
// Shard count and partitioner resolve from, in priority order: the
// `shards` / `partition` params, then the instance's `fabric:` source
// stamp (api/instance_source.h). A missing shard count is an error — a
// fabric run with an ambient default would silently benchmark the wrong
// topology.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/builtin_solvers.h"
#include "api/registry.h"
#include "api/scenario_support.h"
#include "coflow/coflow_metrics.h"
#include "coflow/coflow_policies.h"
#include "fabric/fabric_runner.h"
#include "fabric/fabric_spec.h"
#include "model/coflow.h"
#include "model/metrics.h"

namespace flowsched {
namespace internal {
namespace {

bool IsMatchingBased(const std::string& policy, bool coflow_aware) {
  if (coflow_aware) return policy == "maxweight";
  return policy == "maxcard" || policy == "minrtime" ||
         policy == "maxweight" || policy == "hybrid";
}

class FabricPolicySolver : public Solver {
 public:
  FabricPolicySolver(std::string policy, bool coflow_aware)
      : policy_(std::move(policy)),
        coflow_aware_(coflow_aware),
        name_("fabric." + policy_),
        description_(
            std::string("sharded fabric: partitions the instance across K "
                        "pods and simulates each with the ") +
            (coflow_aware_ ? "coflow-aware " : "flow-level ") + policy_ +
            " policy (merged metrics, cross-shard CCT, load imbalance)") {}

  std::string_view name() const override { return name_; }
  std::string_view description() const override { return description_; }
  std::vector<SolverKeyDoc> ParamDocs() const override {
    return {{"shards",
             "pod count K (required unless the instance came from a "
             "fabric: spec; overrides the spec when both are given)"},
            {"partition",
             "port partitioner: block or hash (default: the fabric: spec's "
             "choice, else block)"},
            {"jobs",
             "threads simulating pods in parallel (default 1; results are "
             "byte-identical for any value)"},
            ScenarioParamDoc(),
            {"validate",
             "0/1 (default 1): per-round selection audits inside each pod"},
            {"approx",
             "eps > 0 (default 0 = exact, maxweight only): eps-approximate "
             "auction matcher inside each pod"}};
  }
  std::vector<SolverKeyDoc> DiagnosticDocs() const override {
    std::vector<SolverKeyDoc> docs = {
        {"shards", "pod count the run used"},
        {"rounds_simulated", "fabric makespan: max rounds any pod ran"},
        {"avg_port_utilization", "mean pod port utilization"},
        {"peak_backlog", "largest backlog any pod's policy saw"},
        {"cross_shard_flows",
         "flows whose destination host lives in another pod (served "
         "via a replica egress port)"},
        {"split_coflows",
         "tagged coflows simulated in more than one pod (their CCT is "
         "the max over member pods)"},
        {"load_imbalance",
         "max pod demand / mean pod demand (1.0 = balanced)"},
        {"num_coflows", "groups (untagged flows count as singletons)"},
        {"num_tagged_coflows", "groups with a real coflow tag"},
        {"total_cct", "sum of per-group fabric completion times"},
        {"avg_cct", "mean fabric CCT"},
        {"p50_cct", "median fabric CCT"},
        {"p95_cct", "95th-percentile fabric CCT"},
        {"p99_cct", "99th-percentile fabric CCT"},
        {"max_cct", "slowest group's fabric CCT"},
        {"avg_slowdown", "mean CCT / single-switch isolation bound"},
        {"max_slowdown", "worst group slowdown vs isolation"}};
    AppendScenarioDiagnosticDocs(&docs);
    return docs;
  }

 protected:
  SolveReport SolveImpl(const Instance& instance,
                        const SolveOptions& options) override {
    SolveReport report;
    report.objective_name = "total_response";
    if (IsMatchingBased(policy_, coflow_aware_) && instance.MaxDemand() > 1) {
      report.error = name_ + " is matching-based and requires unit demands";
      return report;
    }

    // Fabric topology: explicit params override the instance's fabric:
    // source stamp; without either, fail loudly.
    FabricSpec from_source;
    const bool stamped =
        IsFabricSpec(instance.source()) &&
        ParseFabricSpec(instance.source(), from_source, nullptr);
    std::string perr;
    const bool shards_given = options.params.count("shards") > 0;
    int shards = static_cast<int>(options.IntParamOr("shards", 0, &perr));
    if (shards_given && perr.empty() && shards < 1) {
      report.error = "parameter shards must be >= 1, got " +
                     std::to_string(shards);
      return report;
    }
    if (!shards_given && stamped) shards = from_source.shards;
    FabricPartition partition =
        stamped ? from_source.partition : FabricPartition::kBlock;
    const std::string partition_name = options.ParamOr("partition", "");
    if (!partition_name.empty() &&
        !ParsePartitionName(partition_name, partition)) {
      report.error = "parameter partition must be block or hash, got \"" +
                     partition_name + "\"";
      return report;
    }
    const int jobs = static_cast<int>(options.IntParamOr("jobs", 1, &perr));
    const bool validate = options.IntParamOr("validate", 1, &perr) != 0;
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
    if (shards < 1) {
      report.error =
          "fabric solvers need a shard count: load a "
          "\"fabric:shards=K,...\" instance or pass shards=K "
          "(got " + std::to_string(shards) + ")";
      return report;
    }
    if (jobs < 1) {
      report.error = "parameter jobs must be >= 1";
      return report;
    }

    FabricRunOptions run_options;
    run_options.policy = policy_;
    run_options.coflow_aware = coflow_aware_;
    run_options.seed = options.seed;
    run_options.jobs = jobs;
    run_options.validate = validate;
    run_options.matching = matching;
    if (options.max_rounds > 0) {
      // Every pod's safe horizon is bounded by the global one (fewer
      // flows, same releases), so the global check covers all pods.
      if (options.max_rounds < instance.SafeHorizon()) {
        report.error = "max_rounds " + std::to_string(options.max_rounds) +
                       " is below the safe horizon " +
                       std::to_string(instance.SafeHorizon());
        return report;
      }
      run_options.max_rounds = options.max_rounds;
    }
    ScenarioScript script;
    bool has_scenario = false;
    if (!LoadScenarioOption(options, &script, &has_scenario, &report.error)) {
      return report;
    }
    if (has_scenario) run_options.scenario = &script;

    // MIGRATE rules re-home arrivals *before* partitioning — a migrated
    // flow lands in (and is simulated by) its destination's pod. Flow ids
    // are preserved, so the merged schedule still lines up with the
    // original instance for metrics. The remaining timed events project
    // into each pod as usual (fabric_runner.h).
    long long migrated_flows = 0;
    Instance migrated;
    const Instance* run_instance = &instance;
    if (has_scenario && script.has_migrations()) {
      migrated = ApplyScenarioMigrations(instance, script, &migrated_flows);
      run_instance = &migrated;
    }

    const FabricAssignment fa =
        PartitionInstance(*run_instance, shards, partition);
    const FabricResult r = RunFabric(*run_instance, fa, run_options);
    if (r.truncated) {
      report.error = r.error;
      return report;
    }

    report.ok = true;
    report.schedule = r.schedule;
    // Pods own their input ports but replicate remote egress, so the
    // merged schedule is feasible with K x output capacity — sharding as
    // resource augmentation (docs/architecture.md "The fabric layer").
    // MIGRATE additionally shifts load onto destination hosts while the
    // facade audits against the original ports, so the destinations'
    // capacity rides along as additive slack (scenario/scenario.h).
    report.allowance = shards == 1 ? CapacityAllowance::Exact()
                                   : CapacityAllowance::Factor(shards);
    if (has_scenario && script.has_migrations()) {
      report.allowance.additive =
          MigrationCapacityAllowance(script, instance.sw());
    }
    report.diagnostics["shards"] = shards;
    report.diagnostics["rounds_simulated"] = r.rounds;
    report.diagnostics["avg_port_utilization"] = r.avg_port_utilization;
    report.diagnostics["peak_backlog"] = r.peak_backlog;
    report.diagnostics["cross_shard_flows"] =
        static_cast<double>(fa.cross_shard_flows);
    report.diagnostics["split_coflows"] = fa.split_coflows;
    report.diagnostics["load_imbalance"] = fa.LoadImbalance();

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
      // Fault-free baseline: the same seeds with no overlay and no
      // migrations — it partitions the ORIGINAL instance, so the
      // surge/inflation deltas isolate the scenario's full effect
      // (including MIGRATE re-homing flows into other pods).
      FabricRunOptions base_options = run_options;
      base_options.scenario = nullptr;
      const FabricAssignment base_fa =
          script.has_migrations() ? PartitionInstance(instance, shards,
                                                      partition)
                                  : fa;
      const FabricResult base = RunFabric(instance, base_fa, base_options);
      const double faulty_response =
          ComputeMetrics(instance, report.schedule).total_response;
      const double base_response =
          ComputeMetrics(instance, base.schedule).total_response;
      AddScenarioDiagnostics(script, r.rounds, r.downtime_rounds,
                             r.peak_backlog, faulty_response,
                             base.peak_backlog, base_response,
                             migrated_flows, &report);
    }
    return report;
  }

 private:
  std::string policy_;
  bool coflow_aware_;
  std::string name_;
  std::string description_;
};

}  // namespace

void RegisterFabricSolvers(SolverRegistry& registry) {
  std::vector<std::pair<std::string, bool>> policies;
  for (const std::string& p : AllCoflowPolicyNames()) {
    policies.emplace_back(p, /*coflow_aware=*/true);
  }
  for (const std::string& p : AllPolicyNames()) {
    const bool taken =
        std::any_of(policies.begin(), policies.end(),
                    [&](const auto& entry) { return entry.first == p; });
    if (!taken) policies.emplace_back(p, /*coflow_aware=*/false);
  }
  for (const auto& [policy, coflow_aware] : policies) {
    auto factory = [policy, coflow_aware] {
      return std::make_unique<FabricPolicySolver>(policy, coflow_aware);
    };
    auto probe = factory();
    registry.Register(std::string(probe->name()),
                      std::string(probe->description()), std::move(factory));
  }
}

}  // namespace internal
}  // namespace flowsched
