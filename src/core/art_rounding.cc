#include "core/art_rounding.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/art_lp.h"
#include "util/check.h"

namespace flowsched {
namespace {

constexpr double kIntegralTol = 1e-6;
constexpr double kZeroTol = 1e-9;

struct Var {
  FlowId e;
  Round t;
  double value = 0.0;  // b^{l-1}, the previous iteration's optimum.
};

double VarCost(const Instance& instance, const Var& v) {
  // Objective (5) with unit demands: (t - r_e) + 1/2.
  return static_cast<double>(v.t - instance.flow(v.e).release) + 0.5;
}

// Builds the per-port interval rows of LP(l), l >= 1: variables of each port
// sorted by (t, flow), greedily grouped until the running sum of previous
// values first exceeds 4*c_p; the row's rhs is the group's exact size.
void AddIntervalRows(LpProblem& lp, const std::vector<Var>& vars,
                     const std::vector<std::vector<int>>& port_vars,
                     const std::vector<Capacity>& caps,
                     std::vector<std::vector<std::pair<int, int>>>& var_rows) {
  for (std::size_t p = 0; p < port_vars.size(); ++p) {
    const double limit = 4.0 * static_cast<double>(caps[p]);
    double sum = 0.0;
    std::vector<int> group;
    auto flush = [&] {
      if (group.empty()) return;
      const int row = lp.AddRow(RowSense::kLe, sum);
      for (int v : group) var_rows[v].push_back({row, 1});
      group.clear();
      sum = 0.0;
    };
    for (int v : port_vars[p]) {
      group.push_back(v);
      sum += vars[v].value;
      if (sum > limit) flush();
    }
    flush();
  }
}

}  // namespace

Capacity MaxWindowOverload(const Instance& instance, const Schedule& schedule) {
  FS_CHECK(schedule.AllAssigned());
  const PortLoads loads = schedule.ComputeLoads(instance);
  const SwitchSpec& sw = instance.sw();
  Capacity worst = 0;
  auto scan = [&](const std::vector<Capacity>& load, Capacity cap) {
    // Maximum subarray of (load[t] - cap) == worst window overload.
    Capacity best = 0;
    Capacity run = 0;
    for (Capacity l : load) {
      run = std::max<Capacity>(0, run + (l - cap));
      best = std::max(best, run);
    }
    worst = std::max(worst, best);
  };
  for (PortId p = 0; p < sw.num_inputs(); ++p) {
    scan(loads.input[p], sw.input_capacity(p));
  }
  for (PortId q = 0; q < sw.num_outputs(); ++q) {
    scan(loads.output[q], sw.output_capacity(q));
  }
  return worst;
}

PseudoSchedule ArtIterativeRounding(const Instance& instance,
                                    const ArtRoundingOptions& options,
                                    ArtRoundingReport* report) {
  FS_CHECK(!instance.ValidationError().has_value());
  const int n = instance.num_flows();
  PseudoSchedule out;
  out.assignment = Schedule(n);
  ArtRoundingReport local_report;
  ArtRoundingReport& rep = report != nullptr ? *report : local_report;
  rep = ArtRoundingReport{};
  if (n == 0) return out;
  for (const Flow& e : instance.flows()) {
    FS_CHECK_MSG(e.demand == 1,
                 "iterative rounding requires unit demands (Theorem 1)");
  }
  const SwitchSpec& sw = instance.sw();

  // ---------------------------------------------------------------------
  // LP(0): aligned 4-round windows, constraint (7). Solved with horizon
  // extension + the same dual certificate as LP (1)-(4).
  // ---------------------------------------------------------------------
  Round horizon = options.initial_horizon > 0 ? options.initial_horizon
                                              : ArtLpInitialHorizon(instance);
  const Round safe = instance.SafeHorizon();
  horizon = std::min(horizon, safe);
  std::vector<Var> vars;
  for (int attempt = 0; attempt <= options.max_extensions; ++attempt) {
    // Round the horizon up to a whole window.
    horizon = ((horizon + 3) / 4) * 4;
    LpProblem lp;
    std::vector<int> flow_row(n);
    for (int e = 0; e < n; ++e) flow_row[e] = lp.AddRow(RowSense::kGe, 1.0);
    const int windows = horizon / 4;
    auto in_row = [&](PortId p, Round t) {
      return n + (t / 4) * (sw.num_inputs() + sw.num_outputs()) + p;
    };
    auto out_row = [&](PortId q, Round t) {
      return n + (t / 4) * (sw.num_inputs() + sw.num_outputs()) +
             sw.num_inputs() + q;
    };
    for (int a = 0; a < windows; ++a) {
      for (PortId p = 0; p < sw.num_inputs(); ++p) {
        lp.AddRow(RowSense::kLe, 4.0 * static_cast<double>(sw.input_capacity(p)));
      }
      for (PortId q = 0; q < sw.num_outputs(); ++q) {
        lp.AddRow(RowSense::kLe,
                  4.0 * static_cast<double>(sw.output_capacity(q)));
      }
    }
    // One column per flow per window, at the flow's first round in it. A
    // later round of the same window has the same three rows and a strictly
    // higher cost; it sits after that column, and Dantzig and Bland pricing
    // both keep the lower index on ties, so it could never enter the basis
    // (docs/architecture.md, "LP layer"). Dropping it leaves every pivot.
    vars.clear();
    std::vector<std::pair<int, double>> entries(3);
    for (int e = 0; e < n; ++e) {
      const Flow& f = instance.flow(e);
      for (Round t = f.release; t < horizon; t = (t / 4 + 1) * 4) {
        entries[0] = {flow_row[e], 1.0};
        entries[1] = {in_row(f.src, t), 1.0};
        entries[2] = {out_row(f.dst, t), 1.0};
        const Var v{e, t, 0.0};
        lp.AddColumn(VarCost(instance, v), entries);
        vars.push_back(v);
      }
    }
    const SimplexResult res = SolveLp(lp, options.simplex);
    rep.horizon = horizon;
    if (res.status == SimplexStatus::kInfeasible && horizon < safe) {
      horizon = std::min<Round>(safe, horizon + std::max<Round>(8, horizon / 2));
      continue;
    }
    FS_CHECK_MSG(res.status == SimplexStatus::kOptimal,
                 "LP(0) solve failed: " << ToString(res.status));
    bool certified = true;
    for (int e = 0; e < n && certified; ++e) {
      const double w_next = static_cast<double>(horizon - instance.flow(e).release) + 0.5;
      if (res.duals[flow_row[e]] > w_next + 1e-7) certified = false;
    }
    if (!certified && horizon < safe && attempt < options.max_extensions) {
      horizon = std::min<Round>(safe, horizon + std::max<Round>(8, horizon / 2));
      continue;
    }
    for (std::size_t v = 0; v < vars.size(); ++v) vars[v].value = res.x[v];
    rep.lp0_objective = res.objective;
    break;
  }
  FS_CHECK_MSG(rep.lp0_objective > 0.0 || n == 0, "LP(0) was never solved");

  // ---------------------------------------------------------------------
  // Iterations l = 1, 2, ...: fix integral flows, regroup, re-solve.
  // ---------------------------------------------------------------------
  std::vector<char> assigned(n, 0);
  int remaining = n;
  for (int iter = 0; iter < options.max_iterations && remaining > 0; ++iter) {
    ++rep.iterations;
    rep.flows_per_iteration.push_back(remaining);
    // Fix flows whose mass sits (numerically) on a single round.
    int fixed_this_round = 0;
    for (const Var& v : vars) {
      if (!assigned[v.e] && v.value >= 1.0 - kIntegralTol) {
        out.assignment.Assign(v.e, v.t);
        assigned[v.e] = 1;
        --remaining;
        ++fixed_this_round;
      }
    }
    if (remaining == 0) break;
    if (fixed_this_round == 0) {
      // Numerical stall: force-fix the most concentrated flow (Lemma 3.5
      // guarantees progress in exact arithmetic; this guards drift).
      int best_var = -1;
      for (std::size_t v = 0; v < vars.size(); ++v) {
        if (assigned[vars[v].e]) continue;
        if (best_var == -1 || vars[v].value > vars[best_var].value) {
          best_var = static_cast<int>(v);
        }
      }
      FS_CHECK_GE(best_var, 0);
      out.assignment.Assign(vars[best_var].e, vars[best_var].t);
      assigned[vars[best_var].e] = 1;
      --remaining;
      ++rep.forced_fixes;
      if (remaining == 0) break;
    }
    // Surviving variables: nonzero values of still-unassigned flows.
    std::vector<Var> next;
    next.reserve(vars.size());
    for (const Var& v : vars) {
      if (!assigned[v.e] && v.value > kZeroTol) next.push_back(v);
    }
    vars = std::move(next);
    // Variables are appended flow-major; interval grouping needs time order.
    std::sort(vars.begin(), vars.end(), [](const Var& a, const Var& b) {
      return a.t != b.t ? a.t < b.t : a.e < b.e;
    });
    // Build LP(l).
    LpProblem lp;
    std::vector<int> flow_row_of(n, -1);
    for (int e = 0; e < n; ++e) {
      if (!assigned[e]) flow_row_of[e] = lp.AddRow(RowSense::kGe, 1.0);
    }
    // Group per input port and output port.
    std::vector<std::vector<int>> in_vars(sw.num_inputs());
    std::vector<std::vector<int>> out_vars(sw.num_outputs());
    for (std::size_t v = 0; v < vars.size(); ++v) {
      const Flow& f = instance.flow(vars[v].e);
      in_vars[f.src].push_back(static_cast<int>(v));
      out_vars[f.dst].push_back(static_cast<int>(v));
    }
    std::vector<std::vector<std::pair<int, int>>> var_rows(vars.size());
    AddIntervalRows(lp, vars, in_vars, sw.input_capacities(), var_rows);
    AddIntervalRows(lp, vars, out_vars, sw.output_capacities(), var_rows);
    for (std::size_t v = 0; v < vars.size(); ++v) {
      std::vector<std::pair<int, double>> entries;
      entries.reserve(3);
      entries.push_back({flow_row_of[vars[v].e], 1.0});
      for (const auto& [row, coef] : var_rows[v]) {
        entries.push_back({row, static_cast<double>(coef)});
      }
      lp.AddColumn(VarCost(instance, vars[v]), entries);
    }
    const SimplexResult res = SolveLp(lp, options.simplex);
    FS_CHECK_MSG(res.status == SimplexStatus::kOptimal,
                 "LP(" << (iter + 1) << ") failed: " << ToString(res.status));
    for (std::size_t v = 0; v < vars.size(); ++v) vars[v].value = res.x[v];
  }
  FS_CHECK_MSG(remaining == 0,
               "iterative rounding left " << remaining << " flows unassigned");

  // Audit Lemma 3.3 properties for the report.
  rep.pseudo_cost = 0.0;
  for (const Flow& e : instance.flows()) {
    rep.pseudo_cost += static_cast<double>(out.assignment.round_of(e.id) -
                                           e.release) + 0.5;
  }
  rep.max_window_overload = MaxWindowOverload(instance, out.assignment);
  const double cap_log = static_cast<double>(sw.MaxCapacity()) *
                         std::log2(static_cast<double>(std::max(n, 2)));
  rep.overload_per_cap_log_n =
      static_cast<double>(rep.max_window_overload) / cap_log;
  return out;
}

}  // namespace flowsched
