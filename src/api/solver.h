// The unified solver facade: every scheduler in the repo — the offline
// approximation theorems, the exact branch-and-bound solvers, the deadline
// variant, and the online policy simulations — is exposed as a `Solver`
// with one entry point, `Solve(Instance, SolveOptions) -> SolveReport`.
//
// The typed per-algorithm APIs (core/art_scheduler.h, core/mrt_scheduler.h,
// core/exact.h, core/online/simulator.h) remain the primitives; this layer
// adapts their bespoke option/result structs into a common shape so drivers
// (CLI, sweeps, batch runners) can treat "a scheduler" as a value. Solvers
// are obtained by name from the SolverRegistry (api/registry.h).
#ifndef FLOWSCHED_API_SOLVER_H_
#define FLOWSCHED_API_SOLVER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "model/instance.h"
#include "model/metrics.h"
#include "model/schedule.h"

namespace flowsched {

/// Knobs shared by every solver, plus a string-keyed map for solver-specific
/// parameters (each solver documents its keys via Solver::ParamDocs; the
/// generated reference is docs/solvers.md). Keys not accepted by the target
/// solver are an error, not silently ignored — Solve() fails the report so
/// typos surface.
struct SolveOptions {
  // Advisory wall-clock budget; 0 = unlimited. Solvers that cannot stop
  // mid-run still record overruns in diagnostics["time_limit_exceeded"].
  double time_limit_seconds = 0.0;
  // Round horizon for online simulation; 0 = solver default. Offline
  // solvers derive their own horizons and ignore it.
  Round max_rounds = 0;
  std::uint64_t seed = 1;  // Randomized policies (online.random, online.hybrid).
  int verbosity = 0;       // 0 = silent; >= 1 solvers may narrate to stderr.
  std::map<std::string, std::string> params;

  /// Typed parameter accessors. Return `fallback` when the key is absent;
  /// append to *error (if non-null) when the value does not parse (for
  /// DoubleParamOr, also when it is nan or infinite).
  std::string ParamOr(const std::string& key, const std::string& fallback) const;
  std::int64_t IntParamOr(const std::string& key, std::int64_t fallback,
                          std::string* error = nullptr) const;
  double DoubleParamOr(const std::string& key, double fallback,
                       std::string* error = nullptr) const;
};

/// The common result core. Solver-specific extras (LP internals, rounding
/// audits, simulation counters) travel in `diagnostics` so generic drivers
/// can still print them.
struct SolveReport {
  bool ok = false;     // When false `error` explains and only `solver`,
  std::string error;   // `wall_seconds` and `diagnostics` are meaningful.
  std::string solver;  // Registered name, e.g. "mrt.theorem3".

  Schedule schedule;        // Every flow assigned (when ok).
  ScheduleMetrics metrics;  // ComputeMetrics(instance, schedule).
  // Allowance under which `schedule` validates: Exact() for online/exact
  // solvers, the theorem's augmentation for the offline approximations.
  CapacityAllowance allowance;

  // The solver's primary objective over `schedule` and, when the algorithm
  // proves one, a lower bound on that objective for ANY schedule of the
  // instance (LP(0) for art.*, rho* for mrt.theorem3, the optimum itself
  // for exact solvers).
  std::string objective_name;  // "total_response" or "max_response".
  double objective = 0.0;
  std::optional<double> lower_bound;

  double wall_seconds = 0.0;
  std::map<std::string, double> diagnostics;  // Ordered => stable output.

  /// objective / lower_bound when both are meaningful; 0 when not.
  double ApproxRatio() const;
};

/// One documented solver key: a SolveOptions::params key or a diagnostics
/// key, with a one-line contract. The docs generator (`flowsched_cli
/// --describe-solvers`) renders these into docs/solvers.md, so the key list
/// a solver declares IS its public parameter surface.
struct SolverKeyDoc {
  std::string key;
  std::string doc;
};

class Solver {
 public:
  virtual ~Solver() = default;

  /// Registered name, e.g. "mrt.theorem3".
  virtual std::string_view name() const = 0;
  /// One-line summary shown by --list and the generated solver reference.
  virtual std::string_view description() const = 0;
  /// Keys accepted in SolveOptions::params with one-line docs (empty =
  /// none). Solve() rejects any key not listed here.
  virtual std::vector<SolverKeyDoc> ParamDocs() const { return {}; }
  /// Diagnostics keys the solver may emit in SolveReport::diagnostics,
  /// with one-line docs. Advisory (a run may omit keys, e.g. opt-in
  /// counters), but every emitted key should be declared.
  virtual std::vector<SolverKeyDoc> DiagnosticDocs() const { return {}; }
  /// The keys of ParamDocs() — the validation set Solve() enforces.
  std::vector<std::string> ParamKeys() const;

  /// Validates the instance and parameter keys, times SolveImpl, computes
  /// metrics for the returned schedule, and validates it against the
  /// reported allowance. Never throws; failures come back as ok == false.
  SolveReport Solve(const Instance& instance, const SolveOptions& options = {});

 protected:
  /// Fills schedule / allowance / objective_name / lower_bound /
  /// diagnostics (and error on failure). `metrics`, `objective`, `solver`
  /// and `wall_seconds` are filled by Solve().
  virtual SolveReport SolveImpl(const Instance& instance,
                                const SolveOptions& options) = 0;
};

}  // namespace flowsched

#endif  // FLOWSCHED_API_SOLVER_H_
