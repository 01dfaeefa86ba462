// LP (1)-(4): the fractional lower bound on total response time (paper §3.1).
//
//   minimize   sum_e sum_{t >= r_e} ((t - r_e)/d_e + 1/(2*kappa_e)) b_{e,t}
//   subject to sum_t b_{e,t} >= d_e                  (flow completion)
//              sum_{e in F_p} b_{e,t} <= c_p         (port capacity, all p,t)
//              b >= 0
//
// Lemma 3.1: the optimum lower-bounds the total response time of any
// schedule. The paper's LP ranges over an unbounded horizon; we solve over a
// finite horizon H and certify optimality for the unbounded LP from duals
// (docs/architecture.md, "LP layer"): per-flow covering duals alpha_e can
// only price a column (e, t >= H) negative if alpha_e > w_{e,t}, and w is
// increasing in t, so alpha_e <= w_{e,H} for all e proves nothing beyond H
// helps.
#ifndef FLOWSCHED_CORE_ART_LP_H_
#define FLOWSCHED_CORE_ART_LP_H_

#include <vector>

#include "lp/simplex.h"
#include "model/instance.h"

namespace flowsched {

struct ArtLpOptions {
  Round initial_horizon = 0;  // 0 = heuristic from load.
  int max_extensions = 10;    // Horizon grows ~1.6x per retry.
  SimplexOptions simplex;
  // Optional per-flow weights (>= 0, size num_flows). When set, the LP
  // lower-bounds the *weighted* total response time sum_e w_e * rho_e
  // (Lemma 3.1 extends verbatim: Delta_e <= rho_e holds per flow).
  std::vector<double> weights;
};

struct ArtLpResult {
  bool solved = false;
  bool certified = false;  // Optimal for the unbounded-horizon LP.
  double total_fractional_response = 0.0;  // sum_e Delta_e, the lower bound.
  std::vector<double> delta;               // Per-flow Delta_e.
  Round horizon = 0;
  long simplex_iterations = 0;
  int lp_rows = 0;
  int lp_cols = 0;
};

ArtLpResult SolveArtLp(const Instance& instance, const ArtLpOptions& options = {});

// The smallest finite horizon that is always sufficient and the heuristic
// initial guess used before extension (exposed for tests and benches).
Round ArtLpInitialHorizon(const Instance& instance);

}  // namespace flowsched

#endif  // FLOWSCHED_CORE_ART_LP_H_
