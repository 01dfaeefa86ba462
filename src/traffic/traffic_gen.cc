#include "traffic/traffic_gen.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "workload/arrival_source.h"
#include "workload/coflow_gen.h"

namespace flowsched {
namespace {

void ValidateConfig(const TrafficConfig& config) {
  FS_CHECK_GT(config.num_inputs, 0);
  FS_CHECK_GT(config.num_outputs, 0);
  FS_CHECK_GE(config.port_capacity, 1);
  FS_CHECK_GE(config.load, 0.0);
  FS_CHECK(!config.cdf.empty());
  FS_CHECK_GE(config.unit, 0.0);
  FS_CHECK_GT(config.num_rounds, 0);
  FS_CHECK_GE(config.min_width, 1);
  FS_CHECK_GE(config.max_width, 0);
  if (config.max_width > 0) {
    FS_CHECK_GE(config.max_width, config.min_width);
    FS_CHECK(config.width_skew > 0.0 && config.width_skew <= 1.0);
  }
}

int SampleSegments(const TrafficConfig& config, double unit, Rng& rng) {
  const double size = config.cdf.Sample(rng.UniformReal());
  // Segment counts are bounded by MaxSize()/unit; the auto unit keeps that
  // at 64, and even unit=1 against a multi-MB tail stays well inside int.
  const double segments = std::ceil(size / unit);
  return segments < 1.0 ? 1 : static_cast<int>(segments);
}

// Expected requests per round (the calibrated Poisson mean): the target
// load over the expected segments per request (width 1 when untagged).
double MeanTrafficRequestsPerRound(const TrafficConfig& config) {
  const double mean_segments = config.cdf.MeanSegments(TrafficUnit(config));
  const double mean_width =
      config.max_width <= 0 ? 1.0
                            : CoflowWidthMean(config.min_width,
                                              config.max_width,
                                              config.width_skew);
  const double target = config.load * config.num_inputs *
                        static_cast<double>(config.port_capacity);
  return target / (mean_width * mean_segments);
}

}  // namespace

double TrafficUnit(const TrafficConfig& config) {
  if (config.unit > 0.0) return config.unit;
  const double auto_unit =
      std::max(config.cdf.Mean() / 4.0, config.cdf.MaxSize() / 64.0);
  // Degenerate all-zero-size CDFs still need a positive unit.
  return auto_unit > 0.0 ? auto_unit : 1.0;
}

void AppendTrafficRound(const TrafficConfig& config, Round t, Rng& rng,
                        CoflowId* next_coflow, std::vector<Flow>* out) {
  const double unit = TrafficUnit(config);
  const int requests = rng.Poisson(MeanTrafficRequestsPerRound(config));
  for (int c = 0; c < requests; ++c) {
    const bool tagged = config.max_width > 0;
    const int width =
        tagged ? DrawCoflowWidth(rng, config.min_width, config.max_width,
                                 config.width_skew)
               : 1;
    const CoflowId coflow = tagged ? (*next_coflow)++ : kNoCoflow;
    for (int k = 0; k < width; ++k) {
      Flow e;
      e.src = rng.UniformInt(0, config.num_inputs - 1);
      e.dst = rng.UniformInt(0, config.num_outputs - 1);
      e.release = t;
      e.coflow = coflow;
      const int segments = SampleSegments(config, unit, rng);
      for (int s = 0; s < segments; ++s) out->push_back(e);
    }
  }
}

Instance GenerateTraffic(const TrafficConfig& config) {
  ValidateConfig(config);
  Rng rng(config.seed);
  CoflowId next_coflow = 0;
  return DrawRounds(config, [&](Round t, std::vector<Flow>* round) {
    AppendTrafficRound(config, t, rng, &next_coflow, round);
  });
}

}  // namespace flowsched
