// Adapters exposing the offline schedulers (Theorems 1 and 3, the exact
// branch-and-bound solvers, and the Remark 4.2 deadline variant) through the
// Solver facade. Each adapter translates the algorithm's typed result struct
// into a SolveReport; the typed APIs stay the primitives.
#include <memory>
#include <string>
#include <vector>

#include "api/builtin_solvers.h"
#include "api/registry.h"
#include "core/art_scheduler.h"
#include "core/exact.h"
#include "core/mrt_scheduler.h"

namespace flowsched {
namespace internal {
namespace {

// Default cap on instance size for the exponential-time exact solvers
// (core/exact.h: "use only for <= ~20 flows"); overridable via `max_flows`
// up to the bitmask representation's hard limit (core/exact.cc
// kMaxExactFlows, which FS_CHECK-aborts past 30).
constexpr int kDefaultExactMaxFlows = 20;
constexpr int kHardExactMaxFlows = 30;

bool CheckExactSize(const Instance& instance, const SolveOptions& options,
                    SolveReport& report) {
  std::string perr;
  const auto max_flows =
      options.IntParamOr("max_flows", kDefaultExactMaxFlows, &perr);
  if (!perr.empty()) {
    report.error = perr;
    return false;
  }
  if (instance.num_flows() > kHardExactMaxFlows) {
    report.error = "instance has " + std::to_string(instance.num_flows()) +
                   " flows; the exact solvers support at most " +
                   std::to_string(kHardExactMaxFlows);
    return false;
  }
  if (instance.num_flows() > max_flows) {
    report.error = "instance has " + std::to_string(instance.num_flows()) +
                   " flows; exact solvers are exponential (raise max_flows=" +
                   std::to_string(max_flows) + " to force, hard cap " +
                   std::to_string(kHardExactMaxFlows) + ")";
    return false;
  }
  return true;
}

// Splits "3,7;9" (commas or semicolons) into rounds; one per flow.
bool ParseDeadlineList(const std::string& spec, int num_flows,
                       std::vector<Round>& deadlines, std::string& error) {
  deadlines.clear();
  std::string token;
  auto flush = [&] {
    if (token.empty()) return true;
    try {
      deadlines.push_back(std::stoi(token));
    } catch (...) {
      error = "deadlines: unparsable entry \"" + token + "\"";
      return false;
    }
    token.clear();
    return true;
  };
  for (char c : spec) {
    if (c == ',' || c == ';') {
      if (!flush()) return false;
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      token += c;
    }
  }
  if (!flush()) return false;
  if (static_cast<int>(deadlines.size()) != num_flows) {
    error = "deadlines: got " + std::to_string(deadlines.size()) +
            " entries for " + std::to_string(num_flows) + " flows";
    return false;
  }
  return true;
}

class ArtTheorem1Solver : public Solver {
 public:
  std::string_view name() const override { return "art.theorem1"; }
  std::string_view description() const override {
    return "offline (1+c, O(log n)/c) total-response approximation "
           "(Theorem 1)";
  }
  std::vector<SolverKeyDoc> ParamDocs() const override {
    return {{"c",
             "approximation knob >= 1 (default 2): (1+c) augmentation for "
             "O(log n)/c stretch"},
            {"interval_length",
             "geometric interval override (default 0 = derive from c)"},
            {"validate",
             "0/1 (default 1): re-check the coloring decomposition"}};
  }
  std::vector<SolverKeyDoc> DiagnosticDocs() const override {
    return {{"c", "the c actually used"},
            {"interval_length", "rounds per geometric interval"},
            {"max_colors", "largest palette any interval needed"},
            {"max_extra_delay", "worst per-flow delay added by rounding"},
            {"rounding_iterations", "iterative-rounding passes"},
            {"forced_fixes", "variables fixed by feasibility pressure"},
            {"max_window_overload", "worst window overload before repair"},
            {"pseudo_cost", "rounded pseudo-schedule cost"},
            {"horizon", "LP horizon in rounds"}};
  }

 protected:
  SolveReport SolveImpl(const Instance& instance,
                        const SolveOptions& options) override {
    SolveReport report;
    report.objective_name = "total_response";
    if (instance.MaxDemand() > 1) {
      report.error = "art.theorem1 requires unit demands (Theorem 1)";
      return report;
    }
    std::string perr;
    ArtSchedulerOptions opts;
    opts.c = static_cast<int>(options.IntParamOr("c", opts.c, &perr));
    opts.interval_length = static_cast<int>(
        options.IntParamOr("interval_length", opts.interval_length, &perr));
    opts.validate = options.IntParamOr("validate", 1, &perr) != 0;
    if (!perr.empty()) {
      report.error = perr;
      return report;
    }
    if (opts.c < 1) {
      report.error = "parameter c must be >= 1";
      return report;
    }
    const ArtSchedulerResult r = ScheduleArtWithAugmentation(instance, opts);
    report.ok = true;
    report.schedule = r.schedule;
    report.allowance = r.allowance;
    report.lower_bound = r.rounding_report.lp0_objective;
    report.diagnostics["c"] = opts.c;
    report.diagnostics["interval_length"] = r.interval_length;
    report.diagnostics["max_colors"] = r.max_colors;
    report.diagnostics["max_extra_delay"] = r.max_extra_delay;
    report.diagnostics["rounding_iterations"] = r.rounding_report.iterations;
    report.diagnostics["forced_fixes"] = r.rounding_report.forced_fixes;
    report.diagnostics["max_window_overload"] =
        static_cast<double>(r.rounding_report.max_window_overload);
    report.diagnostics["pseudo_cost"] = r.rounding_report.pseudo_cost;
    report.diagnostics["horizon"] = r.rounding_report.horizon;
    return report;
  }
};

class ArtExactSolver : public Solver {
 public:
  std::string_view name() const override { return "art.exact"; }
  std::string_view description() const override {
    return "optimal total response by branch and bound (tiny instances)";
  }
  std::vector<SolverKeyDoc> ParamDocs() const override {
    return {{"max_flows",
             "instance-size guard (default 20, hard cap 30): the search is "
             "exponential in flows"}};
  }

 protected:
  SolveReport SolveImpl(const Instance& instance,
                        const SolveOptions& options) override {
    SolveReport report;
    report.objective_name = "total_response";
    if (!CheckExactSize(instance, options, report)) return report;
    const ExactArtResult r = ExactMinTotalResponse(instance);
    report.ok = true;
    report.schedule = r.schedule;
    report.allowance = CapacityAllowance::Exact();
    report.lower_bound = r.total_response;  // Proven optimum.
    return report;
  }
};

class MrtTheorem3Solver : public Solver {
 public:
  std::string_view name() const override { return "mrt.theorem3"; }
  std::string_view description() const override {
    return "optimal max response with +(2*dmax-1) capacity (Theorem 3)";
  }
  std::vector<SolverKeyDoc> ParamDocs() const override {
    return {{"rho_upper_hint",
             "upper bound seeding the binary search over rho (default: "
             "heuristic schedule's max response)"}};
  }
  std::vector<SolverKeyDoc> DiagnosticDocs() const override {
    return {{"rho_lp", "LP-optimal max response (the proven lower bound)"},
            {"binary_search_probes", "feasibility LPs solved"},
            {"heuristic_upper_bound", "FIFO-greedy upper bound used"},
            {"max_violation", "worst capacity violation before rounding"},
            {"violation_bound", "Theorem 3's 2*dmax-1 violation bound"},
            {"lp_solves", "total LP solves"},
            {"hard_drops", "rows dropped outright"}};
  }

 protected:
  SolveReport SolveImpl(const Instance& instance,
                        const SolveOptions& options) override {
    SolveReport report;
    report.objective_name = "max_response";
    std::string perr;
    MrtSchedulerOptions opts;
    opts.rho_upper_hint = static_cast<Round>(
        options.IntParamOr("rho_upper_hint", opts.rho_upper_hint, &perr));
    if (!perr.empty()) {
      report.error = perr;
      return report;
    }
    const MrtSchedulerResult r = MinimizeMaxResponse(instance, opts);
    report.ok = true;
    report.schedule = r.schedule;
    report.allowance = r.allowance;
    report.lower_bound = static_cast<double>(r.rho_lp);
    report.diagnostics["rho_lp"] = static_cast<double>(r.rho_lp);
    report.diagnostics["binary_search_probes"] = r.binary_search_probes;
    report.diagnostics["heuristic_upper_bound"] = r.heuristic_upper_bound;
    report.diagnostics["max_violation"] =
        static_cast<double>(r.rounding_report.max_violation);
    report.diagnostics["violation_bound"] =
        static_cast<double>(r.rounding_report.bound);
    report.diagnostics["lp_solves"] = r.rounding_report.lp_solves;
    report.diagnostics["hard_drops"] = r.rounding_report.hard_drops;
    return report;
  }
};

class MrtExactSolver : public Solver {
 public:
  std::string_view name() const override { return "mrt.exact"; }
  std::string_view description() const override {
    return "optimal max response by exhaustive search (tiny instances)";
  }
  std::vector<SolverKeyDoc> ParamDocs() const override {
    return {{"max_flows",
             "instance-size guard (default 20, hard cap 30)"},
            {"rho_limit",
             "largest max response to consider (default: the instance's "
             "safe horizon)"}};
  }

 protected:
  SolveReport SolveImpl(const Instance& instance,
                        const SolveOptions& options) override {
    SolveReport report;
    report.objective_name = "max_response";
    if (!CheckExactSize(instance, options, report)) return report;
    std::string perr;
    const Round rho_limit = static_cast<Round>(
        options.IntParamOr("rho_limit", instance.SafeHorizon(), &perr));
    if (!perr.empty()) {
      report.error = perr;
      return report;
    }
    const auto rho = ExactMinMaxResponse(instance, rho_limit);
    if (!rho.has_value()) {
      report.error = "no schedule with max response <= " +
                     std::to_string(rho_limit) + " (rho_limit)";
      return report;
    }
    auto schedule = ExactMrtFeasible(instance, *rho);
    if (!schedule.has_value()) {
      report.error = "internal: rho* found but no witness schedule";
      return report;
    }
    report.ok = true;
    report.schedule = *std::move(schedule);
    report.allowance = CapacityAllowance::Exact();
    report.lower_bound = static_cast<double>(*rho);  // Proven optimum.
    return report;
  }
};

class MrtDeadlineSolver : public Solver {
 public:
  std::string_view name() const override { return "mrt.deadline"; }
  std::string_view description() const override {
    return "deadline-constrained scheduling with +(2*dmax-1) capacity "
           "(Remark 4.2)";
  }
  std::vector<SolverKeyDoc> ParamDocs() const override {
    return {{"deadlines",
             "comma- or semicolon-joined absolute deadline rounds, one per "
             "flow (default: the FIFO-greedy schedule's rounds)"},
            {"deadline_slack",
             "uniform deadline = release + slack (ignored when deadlines "
             "is set)"}};
  }
  std::vector<SolverKeyDoc> DiagnosticDocs() const override {
    return {{"max_violation", "worst capacity violation before rounding"},
            {"violation_bound", "Remark 4.2's violation bound"},
            {"lp_solves", "total LP solves"},
            {"hard_drops", "constraint rows dropped outright"}};
  }

 protected:
  SolveReport SolveImpl(const Instance& instance,
                        const SolveOptions& options) override {
    SolveReport report;
    report.objective_name = "max_response";
    std::vector<Round> deadlines;
    std::string perr;
    const auto slack = options.IntParamOr("deadline_slack", -1, &perr);
    if (!perr.empty()) {
      report.error = perr;
      return report;
    }
    if (const std::string spec = options.ParamOr("deadlines", "");
        !spec.empty()) {
      if (!ParseDeadlineList(spec, instance.num_flows(), deadlines,
                             report.error)) {
        return report;
      }
    } else if (slack >= 0) {
      for (const Flow& e : instance.flows()) {
        deadlines.push_back(e.release + static_cast<Round>(slack));
      }
    } else {
      // Default: deadlines realized by the FIFO-greedy heuristic — always
      // feasible, so the solver demonstrates the machinery out of the box.
      const Schedule fifo = FifoGreedySchedule(instance);
      for (const Flow& e : instance.flows()) {
        deadlines.push_back(fifo.round_of(e.id));
      }
    }
    const auto r = ScheduleWithDeadlines(instance, deadlines);
    if (!r.has_value()) {
      report.error =
          "infeasible: no schedule (even with augmentation) meets the "
          "deadlines";
      return report;
    }
    report.ok = true;
    report.schedule = r->schedule;
    report.allowance = r->allowance;
    report.diagnostics["max_violation"] =
        static_cast<double>(r->rounding_report.max_violation);
    report.diagnostics["violation_bound"] =
        static_cast<double>(r->rounding_report.bound);
    report.diagnostics["lp_solves"] = r->rounding_report.lp_solves;
    report.diagnostics["hard_drops"] = r->rounding_report.hard_drops;
    return report;
  }
};

}  // namespace

void RegisterOfflineSolvers(SolverRegistry& registry) {
  registry.Register([] { return std::make_unique<ArtTheorem1Solver>(); });
  registry.Register([] { return std::make_unique<ArtExactSolver>(); });
  registry.Register([] { return std::make_unique<MrtTheorem3Solver>(); });
  registry.Register([] { return std::make_unique<MrtExactSolver>(); });
  registry.Register([] { return std::make_unique<MrtDeadlineSolver>(); });
}

}  // namespace internal
}  // namespace flowsched
