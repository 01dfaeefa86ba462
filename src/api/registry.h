// Name-based solver lookup, mirroring MakePolicy for the whole system.
//
// The global registry is pre-populated with every built-in scheduler:
//   art.theorem1   offline (1+c, O(log n)/c) total-response approximation
//   art.exact      branch-and-bound optimal total response (tiny instances)
//   mrt.theorem3   optimal max response with +(2*dmax - 1) capacity
//   mrt.exact      exact optimal max response (tiny instances)
//   mrt.deadline   Remark 4.2 deadline-constrained scheduling
//   online.<p>     round-by-round simulation of every AllPolicyNames()
//                  policy p (maxcard, minrtime, maxweight, fifo, ...)
//   coflow.<p>     round-by-round simulation of every coflow-aware policy
//                  (sebf, maxweight, fifo) with CCT diagnostics
//   fabric.<p>     sharded multi-switch simulation of policy p across K
//                  pods (src/fabric/); coflow-aware names win collisions
//
// New backends register here and instantly work in every driver
// (flowsched_cli, sweeps, examples) with zero driver changes.
#ifndef FLOWSCHED_API_REGISTRY_H_
#define FLOWSCHED_API_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/solver.h"

namespace flowsched {

/// Creates a fresh Solver instance (solvers are stateful per solve; every
/// task/run creates its own).
using SolverFactory = std::function<std::unique_ptr<Solver>()>;

/// Name -> solver-factory map; the lookup surface behind every driver.
class SolverRegistry {
 public:
  /// The process-wide registry with all built-in solvers registered.
  static SolverRegistry& Global();

  /// A registry without built-ins (tests, embedders composing their own).
  SolverRegistry() = default;

  /// Registers `factory` under its solver's name() and description();
  /// replaces any existing entry with the same name.
  void Register(SolverFactory factory);

  /// True when `name` is registered.
  bool Contains(std::string_view name) const;
  /// All registered names, sorted.
  std::vector<std::string> Names() const;
  /// Registered names matching a '*'-wildcard pattern ("online.*",
  /// "*.exact", "mrt.theorem3"), sorted. Sweep specs use this to name
  /// solver families without enumerating them. A pattern without '*' is an
  /// exact lookup.
  std::vector<std::string> NamesMatching(std::string_view pattern) const;
  /// One-line description for `name`; empty when unregistered.
  std::string Description(std::string_view name) const;

  /// Returns nullptr and fills *error (if non-null) for unknown names.
  std::unique_ptr<Solver> Create(std::string_view name,
                                 std::string* error = nullptr) const;

  /// One-shot convenience: Create + Solve. Unknown names come back as a
  /// failed report, so batch drivers need no separate error path.
  SolveReport Solve(std::string_view name, const Instance& instance,
                    const SolveOptions& options = {}) const;

 private:
  struct Entry {
    std::string description;
    SolverFactory factory;
  };
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Registers every built-in solver (called once by Global(); exposed for
/// tests and embedders building custom registries).
void RegisterBuiltinSolvers(SolverRegistry& registry);

}  // namespace flowsched

#endif  // FLOWSCHED_API_REGISTRY_H_
