// Internal: registration hooks for the built-in solver adapters
// (api/offline_solvers.cc, api/online_solvers.cc, fabric/fabric_solvers.cc)
// and the one body every replay solver shares. Use RegisterBuiltinSolvers
// (api/registry.h) from application code.
//
// A replay solver — online.<p>, coflow.<p> or fabric.<p> — is ReplayPolicy
// plus a run step. Online and coflow solvers replay the instance on one
// switch (Replay, core/online/simulator.h); fabric solvers partition it
// across pods and merge (RunFabric, fabric/fabric_runner.h). ReplayPolicy
// owns everything else: the shared params, the instance checks, the
// fault-free twin of a scenario run and the diagnostics.
#ifndef FLOWSCHED_API_BUILTIN_SOLVERS_H_
#define FLOWSCHED_API_BUILTIN_SOLVERS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/solver.h"
#include "core/online/simulator.h"
#include "model/instance.h"

namespace flowsched {

class SolverRegistry;

namespace internal {

// art.theorem1, art.exact, mrt.theorem3, mrt.exact, mrt.deadline.
void RegisterOfflineSolvers(SolverRegistry& registry);

// online.<policy> for every AllPolicyNames() entry, then coflow.<policy>
// for every AllCoflowPolicyNames() entry.
void RegisterOnlineSolvers(SolverRegistry& registry);

// fabric.<policy> sharded-fabric adapters (fabric/fabric_solvers.cc):
// coflow-aware policy names first, then the remaining flow-level ones.
void RegisterFabricSolvers(SolverRegistry& registry);

// The policy a replay solver runs: a MakePolicy name, or a
// MakeCoflowPolicy one when coflow_aware.
struct ReplayedPolicy {
  std::string name;
  bool coflow_aware = false;

  std::unique_ptr<SchedulingPolicy> Make(std::uint64_t seed) const;
};

// One run of a replay. options.sim.scenario is the bound script, or null
// for the fault-free twin. The result's schedule is in `instance`'s flow
// ids.
using ReplayStep = std::function<ReplayRun(const Instance& instance,
                                           const ReplayOptions& options)>;

// The body of every replay solver, replaying `policy`. It reads the
// record_backlog, validate and scenario params (the facade has
// already refused keys `solver` does not document), rejects non-unit
// demands when the policy RequiresUnitDemands() and a max_rounds below the
// instance's safe horizon, runs `step`, and reports its schedule under the
// step's allowance plus MIGRATE's slack. The diagnostics are the step's
// own, the run counters, and the matcher, coflow completion time (CCT) and
// backlog rows that `solver` documents. Under a scenario it runs `step` a
// second time without the script and adds the robustness rows against that
// twin.
SolveReport ReplayPolicy(const Solver& solver, const ReplayedPolicy& policy,
                         const Instance& instance,
                         const SolveOptions& options, const ReplayStep& step);

// Doc rows the fabric adapter shares with the single-switch ones.
SolverKeyDoc ScenarioParamDoc();
void AppendCoflowDiagnosticDocs(std::vector<SolverKeyDoc>* docs);
void AppendScenarioDiagnosticDocs(std::vector<SolverKeyDoc>* docs);

}  // namespace internal
}  // namespace flowsched

#endif  // FLOWSCHED_API_BUILTIN_SOLVERS_H_
