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
#include "coflow/coflow_policies.h"
#include "fabric/fabric_runner.h"
#include "fabric/fabric_spec.h"
#include "model/metrics.h"

namespace flowsched {
namespace internal {
namespace {

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
    std::vector<SolverKeyDoc> docs = {
        {"shards",
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
         "0/1 (default 1): per-round selection audits inside each pod"}};
    if (HasAuction()) docs.push_back(ApproxParamDoc());
    return docs;
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
         "max pod demand / mean pod demand (1.0 = balanced)"}};
    AppendCoflowDiagnosticDocs(&docs);
    if (HasAuction()) {
      docs.push_back({"auction_bids",
                      "price raises summed over pods (approx>0)"});
    }
    AppendScenarioDiagnosticDocs(&docs);
    return docs;
  }

 protected:
  SolveReport SolveImpl(const Instance& instance,
                        const SolveOptions& options) override {
    SolveReport report;
    report.objective_name = "total_response";

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
    if (!perr.empty()) {
      report.error = perr;
      return report;
    }
    MatchingOptions matching;
    if (!LoadApproxOption(options, &matching, &report.error)) return report;
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
    run_options.make_policy = [this, matching](std::uint64_t seed) {
      return coflow_aware_ ? MakeCoflowPolicy(policy_, seed, matching)
                           : MakePolicy(policy_, seed);
    };
    // Matching-based pod policies FS_CHECK-abort on non-unit demands.
    if (instance.MaxDemand() > 1 &&
        run_options.make_policy(options.seed)->RequiresUnitDemands()) {
      report.error = name_ + " is matching-based and requires unit demands";
      return report;
    }
    run_options.seed = options.seed;
    run_options.jobs = jobs;
    run_options.validate = validate;
    // Every pod's safe horizon is bounded by the global one (fewer flows,
    // same releases), so the global check covers all pods.
    if (!CheckMaxRounds(instance, options, &report.error)) return report;
    if (options.max_rounds > 0) run_options.max_rounds = options.max_rounds;
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
    if (r.auction_bids > 0) {
      report.diagnostics["auction_bids"] = static_cast<double>(r.auction_bids);
    }

    AddCoflowDiagnostics(instance, &report);
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
  // Coflow maxweight is the only pod policy with an auction path.
  bool HasAuction() const { return coflow_aware_ && policy_ == "maxweight"; }

  std::string policy_;
  bool coflow_aware_;
  std::string name_;
  std::string description_;
};

}  // namespace

void RegisterFabricSolvers(SolverRegistry& registry) {
  const std::vector<std::string> coflow_aware = AllCoflowPolicyNames();
  const auto add = [&](const std::string& policy, bool aware) {
    registry.Register([policy, aware] {
      return std::make_unique<FabricPolicySolver>(policy, aware);
    });
  };
  for (const std::string& p : coflow_aware) add(p, true);
  for (const std::string& p : AllPolicyNames()) {
    if (std::find(coflow_aware.begin(), coflow_aware.end(), p) ==
        coflow_aware.end()) {
      add(p, false);
    }
  }
}

}  // namespace internal
}  // namespace flowsched
