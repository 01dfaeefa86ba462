// Internal: registration hooks for the built-in solver adapters, split by
// family (api/offline_solvers.cc, api/online_solvers.cc,
// coflow/coflow_solvers.cc, fabric/fabric_solvers.cc). Use
// RegisterBuiltinSolvers (api/registry.h) from application code.
#ifndef FLOWSCHED_API_BUILTIN_SOLVERS_H_
#define FLOWSCHED_API_BUILTIN_SOLVERS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/solver.h"
#include "core/online/policy.h"
#include "model/instance.h"
#include "model/schedule.h"

namespace flowsched {

class SolverRegistry;
struct MatchingOptions;

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

// Builds a fresh policy for one replay (a scenario run builds a second one
// for its fault-free twin).
using PolicyFactory = std::function<std::unique_ptr<SchedulingPolicy>()>;

// False with *error when options.max_rounds (0 = the simulator's default)
// is below the instance's safe horizon: the simulator FS_CHECK-aborts when
// flows are still pending at its horizon, so such horizons are refused.
bool CheckMaxRounds(const Instance& instance, const SolveOptions& options,
                    std::string* error);

// The doc rows of ReplayPolicy's params and of its simulation diagnostics
// (each adapter appends its matcher and scenario rows).
std::vector<SolverKeyDoc> ReplayParamDocs();
std::vector<SolverKeyDoc> ReplayDiagnosticDocs();

// The body both adapters share: rejects non-unit demands when the policy
// RequiresUnitDemands(), checks max_rounds (CheckMaxRounds), reads
// the record_backlog, validate and scenario params, replays `instance`
// under make_policy(), and reports the realized schedule with the
// simulation and matcher diagnostics, plus, under a scenario, the
// robustness diagnostics against a fault-free twin run.
SolveReport ReplayPolicy(const Instance& instance,
                         const SolveOptions& options,
                         const PolicyFactory& make_policy);

// Shared by the coflow and fabric adapters (coflow/coflow_solvers.cc).
// Reads the "approx" param (default 0 = exact) into *matching; false with
// *error on an unparsable or negative value. ApproxParamDoc is its doc row
// (only coflow-aware maxweight documents and uses it).
bool LoadApproxOption(const SolveOptions& options, MatchingOptions* matching,
                      std::string* error);
SolverKeyDoc ApproxParamDoc();
// The coflow completion time (CCT) diagnostics of report->schedule, with
// flows grouped by coflow tag (untagged flows count as singletons), and
// their doc rows.
void AddCoflowDiagnostics(const Instance& instance, SolveReport* report);
void AppendCoflowDiagnosticDocs(std::vector<SolverKeyDoc>* docs);

}  // namespace internal
}  // namespace flowsched

#endif  // FLOWSCHED_API_BUILTIN_SOLVERS_H_
