#include "workload/poisson.h"

#include <algorithm>

#include "util/check.h"
#include "util/rng.h"
#include "workload/arrival_source.h"

namespace flowsched {

void AppendPoissonRound(const PoissonConfig& config, Round t, Rng& rng,
                        std::vector<Flow>* out) {
  const int arrivals = rng.Poisson(config.mean_arrivals_per_round);
  for (int k = 0; k < arrivals; ++k) {
    Flow e;
    e.src = rng.UniformInt(0, config.num_inputs - 1);
    e.dst = rng.UniformInt(0, config.num_outputs - 1);
    if (config.max_demand > 1) {
      const Capacity kappa = std::min(config.port_capacity, config.max_demand);
      e.demand = rng.UniformInt(1, static_cast<int>(kappa));
    }
    e.release = t;
    out->push_back(e);
  }
}

Instance GeneratePoisson(const PoissonConfig& config) {
  FS_CHECK_GT(config.num_inputs, 0);
  FS_CHECK_GT(config.num_outputs, 0);
  FS_CHECK_GE(config.mean_arrivals_per_round, 0.0);
  FS_CHECK_GT(config.num_rounds, 0);
  FS_CHECK_GE(config.max_demand, 1);
  Rng rng(config.seed);
  return DrawRounds(config, [&](Round t, std::vector<Flow>* round) {
    AppendPoissonRound(config, t, rng, round);
  });
}

}  // namespace flowsched
