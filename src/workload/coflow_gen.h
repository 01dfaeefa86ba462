// Random coflow workloads: clustered Poisson arrivals of grouped flows.
//
// Coflows arrive per round as a Poisson process (the group-level analogue
// of workload/poisson.h); each coflow draws a width (number of member
// flows) from a truncated-geometric distribution — skew < 1 biases toward
// narrow coflows with a heavy tail of wide ones, matching the shape of the
// Facebook trace — and releases all members in its arrival round
// (clustered), each with uniform random ports, tagged with a fresh coflow
// id.
#ifndef FLOWSCHED_WORKLOAD_COFLOW_GEN_H_
#define FLOWSCHED_WORKLOAD_COFLOW_GEN_H_

#include <cstdint>
#include <vector>

#include "model/instance.h"
#include "util/rng.h"

namespace flowsched {

struct CoflowGenConfig {
  int num_inputs = 16;
  int num_outputs = 16;
  Capacity port_capacity = 1;
  double mean_coflows_per_round = 1.0;
  int num_rounds = 10;
  // Width w is drawn from [min_width, max_width] with
  // P(w) proportional to width_skew^(w - min_width); width_skew = 1 is
  // uniform, smaller values skew narrow.
  int min_width = 1;
  int max_width = 8;
  double width_skew = 1.0;
  // Demands are uniform on [1, min(max_demand, port_capacity)].
  Capacity max_demand = 1;
  std::uint64_t seed = 1;
};

// Generates a random coflow instance; deterministic in `config.seed`.
// Flows appear in release order, grouped by coflow, coflow ids dense from 0.
Instance GenerateCoflows(const CoflowGenConfig& config);

// Appends round t's coflow arrivals to *out (release = t, coflow tags
// allocated from *next_coflow, ids left at 0), drawing from `rng` exactly
// as GenerateCoflows does for one round — the sharing point with the
// streaming source (src/serve/), which replays the identical instance on
// finite runs. `config.num_rounds` is ignored; pacing belongs to the
// caller. Precondition: config already validated.
void AppendCoflowRound(const CoflowGenConfig& config, Round t, Rng& rng,
                       CoflowId* next_coflow, std::vector<Flow>* out);

// The width distribution above, shared with traffic/traffic_gen.h:
// DrawCoflowWidth draws one width from [min_width, max_width],
// CoflowWidthMean is its expectation.
int DrawCoflowWidth(Rng& rng, int min_width, int max_width, double skew);
double CoflowWidthMean(int min_width, int max_width, double skew);

// Expected coflow width under `config`'s distribution. Drivers use this to
// translate a per-port flow load into mean_coflows_per_round:
// rate = load * ports / MeanCoflowWidth(config).
double MeanCoflowWidth(const CoflowGenConfig& config);

}  // namespace flowsched

#endif  // FLOWSCHED_WORKLOAD_COFLOW_GEN_H_
