// Internal: registration hooks for the built-in solver adapters, split by
// family (api/offline_solvers.cc, api/online_solvers.cc,
// coflow/coflow_solvers.cc, fabric/fabric_solvers.cc). Use
// RegisterBuiltinSolvers (api/registry.h) from application code.
#ifndef FLOWSCHED_API_BUILTIN_SOLVERS_H_
#define FLOWSCHED_API_BUILTIN_SOLVERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "api/solver.h"
#include "core/online/policy.h"
#include "model/instance.h"
#include "model/schedule.h"

namespace flowsched {

class SolverRegistry;

namespace internal {

// art.theorem1, art.exact, mrt.theorem3, mrt.exact, mrt.deadline.
void RegisterOfflineSolvers(SolverRegistry& registry);

// online.<policy> for every AllPolicyNames() entry.
void RegisterOnlineSolvers(SolverRegistry& registry);

// coflow.<policy> for every AllCoflowPolicyNames() entry.
void RegisterCoflowSolvers(SolverRegistry& registry);

// fabric.<policy> sharded-fabric adapters (fabric/fabric_solvers.cc):
// coflow-aware policy names first, then the remaining flow-level ones.
void RegisterFabricSolvers(SolverRegistry& registry);

// Shared by the online and coflow adapters: the simulator numbers realized
// flows in arrival order (stable sort of the instance by release); this
// maps a realized-order schedule back onto the instance's flow ids.
Schedule MapRealizedSchedule(const Instance& instance,
                             const Schedule& realized);

// MakePolicy or MakeCoflowPolicy.
using PolicyFactory = std::unique_ptr<SchedulingPolicy> (*)(
    std::string_view, std::uint64_t, const MatchingOptions&);

// The body both adapters share: checks max_rounds against the safe
// horizon, reads the record_backlog, validate, approx and scenario
// params, replays `instance` under make_policy(policy, ...), and
// reports the realized schedule with the simulation and matcher
// diagnostics, plus, under a scenario, the robustness diagnostics against
// a fault-free twin run.
SolveReport ReplayPolicy(const Instance& instance,
                         const SolveOptions& options,
                         const std::string& policy, PolicyFactory make_policy);

}  // namespace internal
}  // namespace flowsched

#endif  // FLOWSCHED_API_BUILTIN_SOLVERS_H_
