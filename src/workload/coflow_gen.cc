#include "workload/coflow_gen.h"

#include <algorithm>

#include "util/check.h"
#include "util/rng.h"
#include "workload/arrival_source.h"

namespace flowsched {
namespace {

void ValidateConfig(const CoflowGenConfig& config) {
  FS_CHECK_GT(config.num_inputs, 0);
  FS_CHECK_GT(config.num_outputs, 0);
  FS_CHECK_GE(config.port_capacity, 1);
  FS_CHECK_GE(config.mean_coflows_per_round, 0.0);
  FS_CHECK_GT(config.num_rounds, 0);
  FS_CHECK_GE(config.min_width, 1);
  FS_CHECK_GE(config.max_width, config.min_width);
  // skew in (0, 1]: 1 is uniform, smaller skews narrow (TruncatedGeometric
  // requires a ratio strictly below 1, so uniform gets its own draw path).
  FS_CHECK(config.width_skew > 0.0 && config.width_skew <= 1.0);
  FS_CHECK_GE(config.max_demand, 1);
}

}  // namespace

int DrawCoflowWidth(Rng& rng, int min_width, int max_width, double skew) {
  return skew >= 1.0 ? rng.UniformInt(min_width, max_width)
                     : min_width - 1 + rng.TruncatedGeometric(
                                           skew, max_width - min_width + 1);
}

double CoflowWidthMean(int min_width, int max_width, double skew) {
  // Uniform: the midpoint (which the loop below computes exactly for spans
  // under 2^21) without looping 2^31 times for a width near INT_MAX.
  if (skew >= 1.0) return 0.5 * (min_width + static_cast<double>(max_width));
  const int span = max_width - min_width + 1;
  double weight_sum = 0.0;
  double mean = 0.0;
  double weight = 1.0;
  // Once the weight underflows to 0 no later term changes either sum.
  for (int k = 0; k < span && weight > 0.0; ++k) {
    weight_sum += weight;
    mean += weight * (min_width + k);
    weight *= skew;
  }
  return mean / weight_sum;
}

double MeanCoflowWidth(const CoflowGenConfig& config) {
  ValidateConfig(config);
  return CoflowWidthMean(config.min_width, config.max_width,
                         config.width_skew);
}

void AppendCoflowRound(const CoflowGenConfig& config, Round t, Rng& rng,
                       CoflowId* next_coflow, std::vector<Flow>* out) {
  const auto demand_cap =
      static_cast<int>(std::min(config.max_demand, config.port_capacity));
  const int arrivals = rng.Poisson(config.mean_coflows_per_round);
  for (int c = 0; c < arrivals; ++c) {
    const int width = DrawCoflowWidth(rng, config.min_width,
                                      config.max_width, config.width_skew);
    const CoflowId coflow = (*next_coflow)++;
    for (int k = 0; k < width; ++k) {
      Flow e;
      e.src = rng.UniformInt(0, config.num_inputs - 1);
      e.dst = rng.UniformInt(0, config.num_outputs - 1);
      e.demand = demand_cap > 1 ? rng.UniformInt(1, demand_cap) : 1;
      e.release = t;
      e.coflow = coflow;
      out->push_back(e);
    }
  }
}

Instance GenerateCoflows(const CoflowGenConfig& config) {
  ValidateConfig(config);
  Rng rng(config.seed);
  CoflowId next_coflow = 0;
  return DrawRounds(config, [&](Round t, std::vector<Flow>* round) {
    AppendCoflowRound(config, t, rng, &next_coflow, round);
  });
}

}  // namespace flowsched
