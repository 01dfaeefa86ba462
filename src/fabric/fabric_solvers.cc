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
#include "coflow/coflow_policies.h"
#include "fabric/fabric_runner.h"
#include "fabric/fabric_spec.h"

namespace flowsched {
namespace internal {
namespace {

class FabricPolicySolver : public Solver {
 public:
  explicit FabricPolicySolver(ReplayedPolicy policy)
      : policy_(std::move(policy)),
        name_("fabric." + policy_.name),
        description_(
            std::string("sharded fabric: partitions the instance across K "
                        "pods and simulates each with the ") +
            (policy_.coflow_aware ? "coflow-aware " : "flow-level ") +
            policy_.name +
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
            ScenarioParamDoc(),
            {"validate",
             "0/1 (default 1): per-round selection audits inside each pod"}};
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
    // fabric.maxweight is the coflow-aware policy: a Hungarian solve per
    // pod per round (RunFabric sums the pods' counts).
    if (policy_.name == "maxweight") {
      docs.push_back({"matcher_full_solves",
                      "rounds solved by the exact Hungarian matcher, summed "
                      "over pods"});
    }
    AppendScenarioDiagnosticDocs(&docs);
    return docs;
  }

 protected:
  SolveReport SolveImpl(const Instance& instance,
                        const SolveOptions& options) override {
    SolveReport report;
    // Fabric topology: explicit params override the instance's fabric:
    // source stamp; without either, fail loudly.
    FabricSpec from_source;
    const bool stamped =
        IsFabricSpec(instance.source()) &&
        ParseFabricSpec(instance.source(), from_source, nullptr);
    const bool shards_given = options.params.count("shards") > 0;
    int shards =
        static_cast<int>(options.IntParamOr("shards", 0, &report.error));
    if (!report.error.empty()) return report;
    if (shards_given && shards < 1) {
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
    if (shards < 1) {
      report.error =
          "fabric solvers need a shard count: load a "
          "\"fabric:shards=K,...\" instance or pass shards=K "
          "(got " + std::to_string(shards) + ")";
      return report;
    }

    return ReplayPolicy(
        *this, policy_, instance, options,
        [&](const Instance& original, const ReplayOptions& run_options) {
          // MIGRATE rules re-home arrivals *before* partitioning — a
          // migrated flow lands in (and is simulated by) its destination's
          // pod. Flow ids are preserved, so the merged schedule still lines
          // up with the original instance. The remaining timed events
          // project into each pod (fabric_runner.h).
          const ScenarioScript* script = run_options.sim.scenario;
          const bool migrates = script != nullptr && script->has_migrations();
          long long migrated_flows = 0;
          const Instance migrated =
              migrates
                  ? ApplyScenarioMigrations(original, *script, &migrated_flows)
                  : Instance();
          const Instance& replayed = migrates ? migrated : original;
          const FabricAssignment fa =
              PartitionInstance(replayed, shards, partition);
          ReplayRun run = RunFabric(replayed, fa, run_options);
          run.migrated_flows = migrated_flows;
          // Pods own their input ports but replicate remote egress, so the
          // merged schedule is feasible with K x output capacity — sharding
          // as resource augmentation (docs/architecture.md "The fabric
          // layer").
          run.allowance = shards == 1 ? CapacityAllowance::Exact()
                                      : CapacityAllowance::Factor(shards);
          run.diagnostics = {
              {"shards", shards},
              {"cross_shard_flows", static_cast<double>(fa.cross_shard_flows)},
              {"split_coflows", fa.split_coflows},
              {"load_imbalance", fa.LoadImbalance()}};
          return run;
        });
  }

 private:
  ReplayedPolicy policy_;
  std::string name_;
  std::string description_;
};

}  // namespace

void RegisterFabricSolvers(SolverRegistry& registry) {
  const std::vector<std::string> coflow_aware = AllCoflowPolicyNames();
  const auto add = [&](const std::string& policy, bool aware) {
    registry.Register([policy, aware] {
      return std::make_unique<FabricPolicySolver>(
          ReplayedPolicy{policy, aware});
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
