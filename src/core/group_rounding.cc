#include "core/group_rounding.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace flowsched {
namespace {

// Capacity-row bookkeeping across rounding iterations. Rows are identified
// by (side, port, round) flattened over the window span [t_lo, t_hi].
//
// Every row starts with the theorem's full budget c_p + (2*dmax - 1): the
// rounded solution then respects the paper's bound by LP feasibility alone,
// and the generous slack lets each vertex fix many variables at once.
// Rows are only raised further ("hard drop") if the LP turns infeasible
// after forced fixes — counted and reported.
class CapacityState {
 public:
  CapacityState(const Instance& instance, Round t_lo, Round t_hi,
                Capacity bound)
      : instance_(instance),
        t_lo_(t_lo),
        bound_(bound),
        ports_per_round_(instance.sw().num_inputs() +
                         instance.sw().num_outputs()),
        fixed_load_((t_hi - t_lo + 1) * ports_per_round_, 0),
        hard_((t_hi - t_lo + 1) * ports_per_round_, 0) {}

  int InIndex(PortId p, Round t) const {
    return (t - t_lo_) * ports_per_round_ + p;
  }
  int OutIndex(PortId q, Round t) const {
    return (t - t_lo_) * ports_per_round_ + instance_.sw().num_inputs() + q;
  }

  Capacity BaseCapacity(int idx) const {
    const int within = idx % ports_per_round_;
    const SwitchSpec& sw = instance_.sw();
    return within < sw.num_inputs()
               ? sw.input_capacity(within)
               : sw.output_capacity(within - sw.num_inputs());
  }

  // Remaining allowed load for the residual LP.
  double Allowed(int idx) const {
    if (hard_[idx]) return 1e15;
    return static_cast<double>(BaseCapacity(idx) + bound_ - fixed_load_[idx]);
  }

  void AddFixed(const Flow& f, Round t) {
    fixed_load_[InIndex(f.src, t)] += f.demand;
    fixed_load_[OutIndex(f.dst, t)] += f.demand;
  }

  bool hard(int idx) const { return hard_[idx] != 0; }
  void MakeHard(int idx) { hard_[idx] = 1; }
  Capacity fixed_load(int idx) const { return fixed_load_[idx]; }
  int num_rows() const { return static_cast<int>(hard_.size()); }

  // True when committing flow f to round t keeps both of its rows within
  // the theorem budget c_p + bound.
  bool FitsBudget(const Flow& f, Round t) const {
    for (int idx : {InIndex(f.src, t), OutIndex(f.dst, t)}) {
      if (fixed_load_[idx] + f.demand > BaseCapacity(idx) + bound_) {
        return false;
      }
    }
    return true;
  }

  // Overshoot beyond the budget that committing f to t would cause.
  Capacity Overshoot(const Flow& f, Round t) const {
    Capacity worst = 0;
    for (int idx : {InIndex(f.src, t), OutIndex(f.dst, t)}) {
      worst = std::max(worst, fixed_load_[idx] + f.demand -
                                  (BaseCapacity(idx) + bound_));
    }
    return std::max<Capacity>(worst, 0);
  }

 private:
  const Instance& instance_;
  Round t_lo_;
  Capacity bound_;
  int ports_per_round_;
  std::vector<Capacity> fixed_load_;
  std::vector<char> hard_;
};

}  // namespace

Schedule GroupRound(const Instance& instance, const ActiveWindows& windows,
                    const TimeConstrainedSolution& fractional,
                    const GroupRoundingOptions& options,
                    GroupRoundingReport* report) {
  FS_CHECK(fractional.feasible);
  const int n = instance.num_flows();
  GroupRoundingReport local;
  GroupRoundingReport& rep = report != nullptr ? *report : local;
  rep = GroupRoundingReport{};
  rep.bound = 2 * std::max<Capacity>(instance.MaxDemand(), 1) - 1;
  Schedule schedule(n);
  if (n == 0) return schedule;

  Round t_lo = std::numeric_limits<Round>::max();
  Round t_hi = std::numeric_limits<Round>::min();
  for (const auto& w : windows) {
    t_lo = std::min(t_lo, w.front());
    t_hi = std::max(t_hi, w.back());
  }
  CapacityState caps(instance, t_lo, t_hi, rep.bound);
  Rng rng(0x9E3779B97F4A7C15ULL ^ static_cast<std::uint64_t>(n));

  // Current fractional values per (flow, window position).
  std::vector<std::vector<double>> x(n);
  for (int e = 0; e < n; ++e) x[e].assign(windows[e].size(), 0.0);
  for (std::size_t v = 0; v < fractional.var_flow.size(); ++v) {
    const FlowId e = fractional.var_flow[v];
    const auto& w = windows[e];
    const auto it =
        std::lower_bound(w.begin(), w.end(), fractional.var_round[v]);
    FS_CHECK(it != w.end() && *it == fractional.var_round[v]);
    x[e][it - w.begin()] = fractional.x[v];
  }

  std::vector<char> fixed(n, 0);
  int remaining = n;
  auto fix_flow = [&](FlowId e, std::size_t pos) {
    schedule.Assign(e, windows[e][pos]);
    caps.AddFixed(instance.flow(e), windows[e][pos]);
    fixed[e] = 1;
    --remaining;
  };
  // Fixes every flow whose value at some round counts as integral, where
  // committing it there keeps both rows within the theorem budget (a loose
  // integrality_tol would otherwise commit flows past it).
  auto fix_integrals = [&] {
    int fixed_now = 0;
    for (int e = 0; e < n; ++e) {
      if (fixed[e]) continue;
      for (std::size_t k = 0; k < x[e].size(); ++k) {
        if (x[e][k] >= 1.0 - options.integrality_tol &&
            caps.FitsBudget(instance.flow(e), windows[e][k])) {
          fix_flow(e, k);
          ++fixed_now;
          break;
        }
      }
    }
    return fixed_now;
  };
  // Force the single most concentrated remaining flow; used when a vertex
  // fixes nothing (numerically) or the solve budget runs out. Prefers
  // placements that stay within the theorem budget; only when a flow has no
  // in-budget round at all does it take the least-overshooting one.
  auto force_fix_best = [&] {
    int best_e = -1;
    std::size_t best_k = 0;
    double best_x = -1.0;
    bool best_fits = false;
    Capacity best_overshoot = std::numeric_limits<Capacity>::max();
    for (int e = 0; e < n; ++e) {
      if (fixed[e]) continue;
      const Flow& f = instance.flow(e);
      for (std::size_t k = 0; k < x[e].size(); ++k) {
        const bool fits = caps.FitsBudget(f, windows[e][k]);
        const Capacity overshoot =
            fits ? 0 : caps.Overshoot(f, windows[e][k]);
        const bool better =
            fits != best_fits
                ? fits
                : (fits ? x[e][k] > best_x
                        : overshoot < best_overshoot ||
                              (overshoot == best_overshoot && x[e][k] > best_x));
        if (better) {
          best_x = x[e][k];
          best_e = e;
          best_k = k;
          best_fits = fits;
          best_overshoot = overshoot;
        }
      }
    }
    FS_CHECK_GE(best_e, 0);
    fix_flow(best_e, best_k);
    ++rep.forced_fixes;
  };

  fix_integrals();
  while (remaining > 0) {
    if (rep.lp_solves >= options.max_lp_solves) {
      while (remaining > 0) force_fix_best();
      break;
    }
    // Residual LP over unfixed flows under the budgeted capacities, with a
    // small random objective: a generic cost makes the optimal vertex
    // unique and unrelated to the previous one, so each solve fixes many
    // flows (zero objective would return the same vertex forever).
    LpProblem lp;
    std::vector<int> assign_row(n, -1);
    for (int e = 0; e < n; ++e) {
      if (!fixed[e]) assign_row[e] = lp.AddRow(RowSense::kEq, 1.0);
    }
    std::vector<int> row_of_cap(caps.num_rows(), -1);
    std::vector<int> cap_of_row;
    auto cap_row = [&](int cap_idx) {
      if (row_of_cap[cap_idx] == -1) {
        row_of_cap[cap_idx] = lp.AddRow(RowSense::kLe, caps.Allowed(cap_idx));
        cap_of_row.push_back(cap_idx);
      }
      return row_of_cap[cap_idx];
    };
    for (int e = 0; e < n; ++e) {
      if (fixed[e]) continue;
      const Flow& f = instance.flow(e);
      for (Round t : windows[e]) {
        cap_row(caps.InIndex(f.src, t));
        cap_row(caps.OutIndex(f.dst, t));
      }
    }
    std::vector<std::pair<FlowId, std::size_t>> var_key;
    std::vector<std::pair<int, double>> entries(3);
    for (int e = 0; e < n; ++e) {
      if (fixed[e]) continue;
      const Flow& f = instance.flow(e);
      for (std::size_t k = 0; k < windows[e].size(); ++k) {
        const Round t = windows[e][k];
        entries[0] = {assign_row[e], 1.0};
        entries[1] = {row_of_cap[caps.InIndex(f.src, t)],
                      static_cast<double>(f.demand)};
        entries[2] = {row_of_cap[caps.OutIndex(f.dst, t)],
                      static_cast<double>(f.demand)};
        lp.AddColumn(rng.UniformReal(), entries);
        var_key.push_back({e, k});
      }
    }
    const SimplexResult res = SolveLp(lp, options.simplex);
    ++rep.lp_solves;
    rep.simplex_iterations += res.iterations;
    if (rep.lp_solves == 1 && res.ok()) rep.first_lp_objective = res.objective;
    if (res.status != SimplexStatus::kOptimal) {
      // Forced fixes consumed more than their fractional share somewhere:
      // lift the tightest non-hard row and retry.
      int candidate = -1;
      double least_slack = std::numeric_limits<double>::max();
      for (int idx : cap_of_row) {
        if (caps.hard(idx)) continue;
        if (caps.Allowed(idx) < least_slack) {
          least_slack = caps.Allowed(idx);
          candidate = idx;
        }
      }
      FS_CHECK_MSG(candidate != -1, "group rounding: no relaxable row left");
      caps.MakeHard(candidate);
      ++rep.hard_drops;
      continue;
    }
    for (int e = 0; e < n; ++e) {
      if (!fixed[e]) std::fill(x[e].begin(), x[e].end(), 0.0);
    }
    for (std::size_t v = 0; v < var_key.size(); ++v) {
      x[var_key[v].first][var_key[v].second] = res.x[v];
    }
    if (fix_integrals() == 0) {
      // Genuine fractional vertex (entangled cycle): break it by fixing the
      // heaviest variable, then re-solve.
      force_fix_best();
    }
  }

  FS_CHECK(schedule.AllAssigned());
  const PortLoads loads = schedule.ComputeLoads(instance);
  rep.max_violation = loads.MaxOverload(instance.sw());
  return schedule;
}

}  // namespace flowsched
